"""Command-line entry point exposing the whole pipeline as subcommands.

Hyperparameters live in a strict sectioned JSON config (unknown keys are
rejected, missing required keys are named); paths can come from the config's
``paths`` section or from flags, with flags winning. Every file output is
written atomically, and all randomness is seeded from the config, so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import FORMAT_VERSION, __version__
from .bert import BertConfig, build_model, load_checkpoint, pretrain
from .checkpoint import atomic_write_json, atomic_write_text
from .classifiers import (
    HEAD_KINDS,
    TrainConfig,
    default_epochs,
    load_sentiment_model,
    predict,
    predict_encoded,
    save_sentiment_model,
    train_bilstm,
    train_finetune,
    train_mlp,
)
from .corpus import (
    compute_stats,
    load_labeled,
    save_labeled,
    split,
    to_binary,
    undersample,
)
from .metrics import confusion, report
from .normalize import NormalizationRules, default_rules, load_rules, normalize_stream
from .wordpiece import encode_batch, load_vocab, save_vocab, train_wordpiece

logger = logging.getLogger(__name__)

_SECTION_KEYS = {
    "normalizer": {"rules", "final_heh_ae"},
    "tokenizer": {"vocab_size", "min_freq"},
    "train": {
        "epochs",
        "max_len",
        "learning_rate",
        "dropout_rate",
        "batch_size",
        "seed",
        "num_classes",
        "lstm_hidden",
        "hidden_sizes",
    },
    "pretrain": {"max_len", "learning_rate", "mask_rate", "log_every"},
    "paths": {
        "corpus",
        "labeled",
        "vocab",
        "encoder",
        "model",
        "out",
        "out_train",
        "out_test",
    },
}


def load_pipeline_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known_top = set(_SECTION_KEYS) | {"seed", "bert"}
    for key in raw:
        if key not in known_top:
            raise ValueError(f"{path}: unknown config key {key!r}")
    for section, keys in _SECTION_KEYS.items():
        body = raw.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"{path}: section {section!r} must be an object")
        for key in body:
            if key not in keys:
                raise ValueError(f"{path}: unknown key {key!r} in section {section!r}")
    return raw


def _resolve(flag_value, config: dict, section: str, key: str, required_as: str | None = None):
    if flag_value is not None:
        return flag_value
    value = config.get(section, {}).get(key)
    if value is None and required_as is not None:
        raise ValueError(
            f"missing required value: pass {required_as} or set {section}.{key} in the config"
        )
    return value


def _rules_from(args, config) -> NormalizationRules:
    rules_path = _resolve(getattr(args, "rules", None), config, "normalizer", "rules")
    rules = load_rules(rules_path) if rules_path else default_rules()
    if config.get("normalizer", {}).get("final_heh_ae") or getattr(args, "final_heh_ae", False):
        rules = NormalizationRules(
            char_map=rules.char_map,
            strip_set=rules.strip_set,
            digit_policy=rules.digit_policy,
            final_heh_to_ae=True,
        )
    return rules


def _seed_from(args, config) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return config.get("seed", 42)


def cmd_normalize(args) -> int:
    config = load_pipeline_config(args.config)
    rules = _rules_from(args, config)
    out_lines = []
    with open(args.infile, encoding="utf-8") as fh:
        for line in normalize_stream(fh, rules):
            out_lines.append(line)
    atomic_write_text(args.out, "".join(line + "\n" for line in out_lines))
    print(f"normalized {len(out_lines)} lines -> {args.out}")
    return 0


def cmd_corpus_stats(args) -> int:
    config = load_pipeline_config(args.config)
    rules = _rules_from(args, config)
    examples = load_labeled(args.infile, rules)
    payload = compute_stats(examples).to_json_dict()
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_split(args) -> int:
    config = load_pipeline_config(args.config)
    rules = _rules_from(args, config)
    examples = load_labeled(args.infile, rules)
    ds = split(examples, ratio=args.ratio, seed=_seed_from(args, config))
    save_labeled(ds.train, args.out_train)
    save_labeled(ds.test, args.out_test)
    print(f"split {len(examples)} examples -> {len(ds.train)} train / {len(ds.test)} test")
    return 0


def cmd_to_binary(args) -> int:
    config = load_pipeline_config(args.config)
    rules = _rules_from(args, config)
    examples = load_labeled(args.infile, rules)
    kept = to_binary(examples)
    save_labeled(kept, args.out)
    print(f"kept {len(kept)} of {len(examples)} examples (neutral removed)")
    return 0


def cmd_undersample(args) -> int:
    config = load_pipeline_config(args.config)
    rules = _rules_from(args, config)
    examples = load_labeled(args.infile, rules)
    kept = undersample(examples, seed=_seed_from(args, config))
    save_labeled(kept, args.out)
    print(f"kept {len(kept)} of {len(examples)} examples (balanced)")
    return 0


def cmd_train_tokenizer(args) -> int:
    config = load_pipeline_config(args.config)
    vocab_size = _resolve(args.vocab_size, config, "tokenizer", "vocab_size", "--vocab-size")
    min_freq = _resolve(args.min_freq, config, "tokenizer", "min_freq") or 1
    with open(args.infile, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    vocab = train_wordpiece(lines, vocab_size=vocab_size, min_freq=min_freq)
    save_vocab(vocab, args.out)
    print(f"trained {len(vocab)}-piece vocabulary -> {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    config = load_pipeline_config(args.config)
    if "bert" not in config:
        raise ValueError("config missing required section 'bert'")
    bert_config = BertConfig.from_dict(config["bert"])
    corpus_path = _resolve(args.corpus, config, "paths", "corpus", "--corpus")
    vocab_path = _resolve(args.vocab, config, "paths", "vocab", "--vocab")
    out_dir = _resolve(args.out, config, "paths", "out", "--out")
    seed = _seed_from(args, config)
    knobs = config.get("pretrain", {})
    vocab = load_vocab(vocab_path)
    with open(corpus_path, encoding="utf-8") as fh:
        corpus = [line.rstrip("\n") for line in fh if line.strip()]
    model = build_model(bert_config, seed=seed)
    result = pretrain(
        model,
        corpus,
        vocab,
        bert_config,
        seed=seed,
        checkpoint_dir=out_dir,
        max_len=args.max_len or knobs.get("max_len", 128),
        lr=args.lr or knobs.get("learning_rate", 1e-4),
        mask_rate=knobs.get("mask_rate", 0.15),
        log_every=knobs.get("log_every", 50),
        resume=args.resume,
    )
    final = result.losses[-1] if result.losses else float("nan")
    print(f"pretrained {result.steps} steps (final loss {final:.4f}) -> {out_dir}")
    return 0


def _train_config_from(config: dict, args, encoder_hidden: int) -> TrainConfig:
    section = dict(config.get("train", {}))
    section.pop("lstm_hidden", None)
    section.pop("hidden_sizes", None)
    if "epochs" not in section:
        section["epochs"] = default_epochs(args.task, encoder_hidden)
    if "seed" not in section:
        section["seed"] = _seed_from(args, config)
    if args.epochs is not None:
        section["epochs"] = args.epochs
    if args.num_classes is not None:
        section["num_classes"] = args.num_classes
    return TrainConfig(**section)


def cmd_train(args) -> int:
    config = load_pipeline_config(args.config)
    encoder_dir = _resolve(args.encoder, config, "paths", "encoder", "--encoder")
    data_path = _resolve(args.data, config, "paths", "labeled", "--data")
    vocab_path = _resolve(args.vocab, config, "paths", "vocab", "--vocab")
    out_dir = _resolve(args.out, config, "paths", "model", "--out")
    rules = _rules_from(args, config)
    encoder, bert_config = load_checkpoint(encoder_dir)
    train_config = _train_config_from(config, args, bert_config.hidden_size)
    vocab = load_vocab(vocab_path)
    dataset = load_labeled(data_path, rules)
    section = config.get("train", {})
    if args.task == "finetune":
        model = train_finetune(encoder, vocab, dataset, train_config)
    elif args.task == "bilstm":
        model = train_bilstm(
            encoder, vocab, dataset, train_config,
            lstm_hidden=section.get("lstm_hidden", 128),
        )
    else:
        model = train_mlp(
            encoder, vocab, dataset, train_config,
            hidden_sizes=tuple(section.get("hidden_sizes", (256, 64))),
        )
    save_sentiment_model(model, out_dir)
    final = model.train_losses[-1] if model.train_losses else float("nan")
    print(f"trained {args.task} head ({len(dataset)} examples, final loss {final:.4f}) -> {out_dir}")
    return 0


def _batch_predict(model, vocab, dataset):
    ids, masks = encode_batch([ex.text for ex in dataset], vocab, model.train_config.max_len)
    preds = []
    for start in range(0, len(ids), 32):
        probs = predict_encoded(model, ids[start : start + 32], masks[start : start + 32])
        preds.extend(model.labels[int(i)] for i in np.argmax(probs, axis=1))
    return preds


def cmd_evaluate(args) -> int:
    config = load_pipeline_config(args.config)
    model_dir = _resolve(args.model, config, "paths", "model", "--model")
    data_path = _resolve(args.data, config, "paths", "labeled", "--data")
    vocab_path = _resolve(args.vocab, config, "paths", "vocab", "--vocab")
    rules = _rules_from(args, config)
    model = load_sentiment_model(model_dir)
    vocab = load_vocab(vocab_path)
    dataset = load_labeled(data_path, rules)
    preds = _batch_predict(model, vocab, dataset)
    truths = [ex.label for ex in dataset]
    label_values = [label.value for label in model.labels]
    cm = confusion([t.value for t in truths], [p.value for p in preds], label_values)
    rep = report(cm)
    payload = rep.to_json_dict()
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"accuracy {rep.accuracy:.4f} -> {args.out}")
    else:
        sys.stdout.write(text)
    if args.table:
        print(rep.to_table())
    return 0


def cmd_predict(args) -> int:
    config = load_pipeline_config(args.config)
    model_dir = _resolve(args.model, config, "paths", "model", "--model")
    vocab_path = _resolve(args.vocab, config, "paths", "vocab", "--vocab")
    rules = _rules_from(args, config)
    model = load_sentiment_model(model_dir)
    vocab = load_vocab(vocab_path)
    label, probs = predict(model, args.text, vocab, rules)
    fields = [label.value] + [f"{p:.6f}" for p in probs]
    print("\t".join(fields))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kusent",
        description="Central Kurdish sentiment pipeline: normalize, tokenize, pretrain, classify.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"kusent {__version__} (format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="pipeline config JSON")
        return p

    p = add("normalize", cmd_normalize, "normalize a raw text file line by line")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules", help="normalization rules file")
    p.add_argument("--final-heh-ae", dest="final_heh_ae", action="store_true",
                   help="rewrite word-final heh to ae (off by default)")

    p = add("corpus-stats", cmd_corpus_stats, "token statistics of a labeled TSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--rules")

    p = add("split", cmd_split, "stratified train/test split of a labeled TSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int)
    p.add_argument("--rules")

    p = add("to-binary", cmd_to_binary, "drop neutral examples")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules")

    p = add("undersample", cmd_undersample, "balance classes down to the minority count")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--rules")

    p = add("train-tokenizer", cmd_train_tokenizer, "train a WordPiece vocabulary")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--min-freq", type=int)
    p.add_argument("--out", required=True)

    p = add("pretrain", cmd_pretrain, "masked-language-model pretraining")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--lr", type=float)
    p.add_argument("--resume", action="store_true")

    p = add("train", cmd_train, "train a sentiment classifier head")
    p.add_argument("--task", required=True, choices=HEAD_KINDS)
    p.add_argument("--encoder")
    p.add_argument("--data")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--num-classes", type=int, dest="num_classes", choices=(2, 3))
    p.add_argument("--seed", type=int)
    p.add_argument("--rules")

    p = add("evaluate", cmd_evaluate, "evaluate a model on a labeled TSV")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.add_argument("--table", action="store_true", help="also print a plain-text table")
    p.add_argument("--rules")

    p = add("predict", cmd_predict, "classify one text")
    p.add_argument("--model")
    p.add_argument("--vocab")
    p.add_argument("--text", required=True)
    p.add_argument("--rules")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO if args.command in ("pretrain", "train") else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
