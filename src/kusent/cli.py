"""Command-line entry point exposing the whole pipeline as subcommands.

Hyperparameters and paths live in a strict sectioned JSON config (an unknown
key, a missing required key or a wrong-typed value is named). ``main`` loads
it once into one settings dict, and each flag that stands for a config key
writes over that key: the flag's argparse ``dest`` is ``@section.key`` (or
``@seed``), so a flag always beats its key. Every file output is written
atomically, and all randomness is seeded from the settings, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import FORMAT_VERSION, __version__
from .bert import (
    BERT_CONFIG_TYPES, BertConfig, build_model, check_pretrain_values, load_checkpoint, pretrain,
)
from .checkpoint import atomic_write_text, check_fields, field_types, from_dict, read_json
from .classifiers import (
    HEAD_META_TYPES,
    TrainConfig,
    check_labels,
    check_widths,
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

# section -> key -> type; every section is optional
_SECTION_TYPES = {
    "normalizer": {"rules": str | None, "final_heh_ae": bool},
    "tokenizer": {"vocab_size": int, "min_freq": int},
    "bert": BERT_CONFIG_TYPES,
    # TrainConfig's fields plus the head_meta keys a config may set
    "train": dict(
        field_types(TrainConfig),
        lstm_hidden=HEAD_META_TYPES["bilstm"]["lstm_hidden"],
        hidden_sizes=HEAD_META_TYPES["mlp"]["hidden_sizes"],
    ),
    "pretrain": {"max_len": int, "learning_rate": float, "mask_rate": float, "log_every": int},
    "paths": dict.fromkeys(("corpus", "labeled", "vocab", "encoder", "model", "out"), str),
}


def load_pipeline_config(path: str | None) -> dict:
    """The config file at ``path`` as read (``{}`` for none), once each section and key is checked."""
    if path is None:
        return {}
    raw = check_fields(read_json(path), dict.fromkeys(_SECTION_TYPES, dict) | {"seed": int}, path)
    for section, types in _SECTION_TYPES.items():
        check_fields(raw.get(section, {}), types, f"{path}: {section}")
    return raw


def _required(settings: dict, key: str, flag: str):
    """The setting ``key`` (``section.name``); a ValueError naming ``flag`` and ``key`` when unset."""
    section, name = key.split(".")
    value = settings.get(section, {}).get(name)
    if value is None:
        raise ValueError(f"missing required value: pass {flag} or set {key} in the config")
    return value


def _rules_from(settings: dict) -> NormalizationRules:
    normalizer = settings.get("normalizer", {})
    rules = load_rules(normalizer["rules"]) if normalizer.get("rules") else default_rules()
    if normalizer.get("final_heh_ae"):
        rules = dataclasses.replace(rules, final_heh_to_ae=True)
    return rules


def cmd_normalize(args, settings) -> int:
    rules = _rules_from(settings)
    out_lines = []
    with open(args.infile, encoding="utf-8") as fh:
        for line in normalize_stream(fh, rules):
            out_lines.append(line)
    atomic_write_text(args.out, "".join(line + "\n" for line in out_lines))
    print(f"normalized {len(out_lines)} lines -> {args.out}")
    return 0


def cmd_corpus_stats(args, settings) -> int:
    examples = load_labeled(args.infile, _rules_from(settings))
    payload = compute_stats(examples).to_json_dict()
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_split(args, settings) -> int:
    examples = load_labeled(args.infile, _rules_from(settings))
    ds = split(examples, ratio=args.ratio, seed=settings["seed"])
    save_labeled(ds.train, args.out_train)
    save_labeled(ds.test, args.out_test)
    print(f"split {len(examples)} examples -> {len(ds.train)} train / {len(ds.test)} test")
    return 0


def cmd_to_binary(args, settings) -> int:
    examples = load_labeled(args.infile, _rules_from(settings))
    kept = to_binary(examples)
    save_labeled(kept, args.out)
    print(f"kept {len(kept)} of {len(examples)} examples (neutral removed)")
    return 0


def cmd_undersample(args, settings) -> int:
    examples = load_labeled(args.infile, _rules_from(settings))
    kept = undersample(examples, seed=settings["seed"])
    save_labeled(kept, args.out)
    print(f"kept {len(kept)} of {len(examples)} examples (balanced)")
    return 0


def cmd_train_tokenizer(args, settings) -> int:
    _required(settings, "tokenizer.vocab_size", "--vocab-size")
    with open(args.infile, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    # the section's keys are train_wordpiece's vocab_size and min_freq
    vocab = train_wordpiece(lines, **settings["tokenizer"])
    save_vocab(vocab, args.out)
    print(f"trained {len(vocab)}-piece vocabulary -> {args.out}")
    return 0


def cmd_pretrain(args, settings) -> int:
    if "bert" not in settings:
        raise ValueError("config missing required section 'bert'")
    bert_config = BertConfig.from_dict(settings["bert"], f"{args.config}: bert")
    corpus_path = _required(settings, "paths.corpus", "--corpus")
    vocab_path = _required(settings, "paths.vocab", "--vocab")
    out_dir = _required(settings, "paths.out", "--out")
    # the section's keys are pretrain's arguments; checked before the build
    knobs = settings.get("pretrain", {})
    check_pretrain_values(**knobs)
    vocab = load_vocab(vocab_path)
    with open(corpus_path, encoding="utf-8") as fh:
        corpus = [line.rstrip("\n") for line in fh if line.strip()]
    model = build_model(bert_config, seed=settings["seed"])
    result = pretrain(model, corpus, vocab, bert_config, seed=settings["seed"], checkpoint_dir=out_dir,
                      resume=args.resume, **knobs)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"pretrained {result.steps} steps (final loss {final:.4f}) -> {out_dir}")
    return 0


def cmd_train(args, settings) -> int:
    encoder_dir = _required(settings, "paths.encoder", "--encoder")
    data_path = _required(settings, "paths.labeled", "--data")
    vocab_path = _required(settings, "paths.vocab", "--vocab")
    out_dir = _required(settings, "paths.model", "--out")
    rules = _rules_from(settings)
    encoder, bert_config = load_checkpoint(encoder_dir)
    where = f"{args.config}: train" if args.config else "train"
    section = settings.get("train", {})
    fields = {k: v for k, v in section.items() if k in field_types(TrainConfig)}
    fields.setdefault("epochs", default_epochs(args.task, bert_config.hidden_size))
    fields.setdefault("seed", settings["seed"])
    train_config = from_dict(TrainConfig, fields, where)
    vocab = load_vocab(vocab_path)
    dataset = load_labeled(data_path, rules)
    # the head's own keys (lstm_hidden, hidden_sizes) as the config sets them
    head_args = check_widths({k: v for k, v in section.items() if k in HEAD_META_TYPES[args.task]}, where)
    trainers = {"finetune": train_finetune, "bilstm": train_bilstm, "mlp": train_mlp}
    model = trainers[args.task](encoder, vocab, dataset, train_config, **head_args)
    save_sentiment_model(model, out_dir)
    final = model.train_losses[-1] if model.train_losses else float("nan")
    print(f"trained {args.task} head ({len(dataset)} examples, final loss {final:.4f}) -> {out_dir}")
    return 0


def _batch_predict(model, vocab, dataset):
    ids, masks = encode_batch([ex.text for ex in dataset], vocab, model.train_config.max_len)
    return [model.labels[int(i)] for i in np.argmax(predict_encoded(model, ids, masks), axis=1)]


def cmd_evaluate(args, settings) -> int:
    model_dir = _required(settings, "paths.model", "--model")
    data_path = _required(settings, "paths.labeled", "--data")
    vocab_path = _required(settings, "paths.vocab", "--vocab")
    rules = _rules_from(settings)
    model = load_sentiment_model(model_dir)
    vocab = load_vocab(vocab_path)
    dataset = load_labeled(data_path, rules)
    check_labels(dataset, model.labels)
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


def cmd_predict(args, settings) -> int:
    model_dir = _required(settings, "paths.model", "--model")
    vocab_path = _required(settings, "paths.vocab", "--vocab")
    rules = _rules_from(settings)
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

    # a flag whose dest is "@section.key" (or "@seed") writes over that config key
    def add(name, fn, help_text, rules=True):
        p = sub.add_parser(name, help=help_text, epilog="a flag shown as @SECTION.KEY sets that config key")
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="pipeline config JSON")
        if rules:
            p.add_argument("--rules", dest="@normalizer.rules", help="normalization rules file")
        return p

    p = add("normalize", cmd_normalize, "normalize a raw text file line by line")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--final-heh-ae", dest="@normalizer.final_heh_ae", action="store_true", default=None,
                   help="rewrite word-final heh to ae (off by default)")

    p = add("corpus-stats", cmd_corpus_stats, "token statistics of a labeled TSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("split", cmd_split, "stratified train/test split of a labeled TSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", dest="@seed", type=int)

    p = add("to-binary", cmd_to_binary, "drop neutral examples")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("undersample", cmd_undersample, "balance classes down to the minority count")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", dest="@seed", type=int)

    p = add("train-tokenizer", cmd_train_tokenizer, "train a WordPiece vocabulary", rules=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vocab-size", dest="@tokenizer.vocab_size", type=int)
    p.add_argument("--min-freq", dest="@tokenizer.min_freq", type=int)
    p.add_argument("--out", required=True)

    p = add("pretrain", cmd_pretrain, "masked-language-model pretraining", rules=False)
    p.add_argument("--corpus", dest="@paths.corpus")
    p.add_argument("--vocab", dest="@paths.vocab")
    p.add_argument("--out", dest="@paths.out")
    p.add_argument("--seed", dest="@seed", type=int)
    p.add_argument("--max-len", dest="@pretrain.max_len", type=int)
    p.add_argument("--lr", dest="@pretrain.learning_rate", type=float)
    p.add_argument("--resume", action="store_true")

    p = add("train", cmd_train, "train a sentiment classifier head")
    p.add_argument("--task", required=True, choices=tuple(HEAD_META_TYPES))
    p.add_argument("--encoder", dest="@paths.encoder")
    p.add_argument("--data", dest="@paths.labeled")
    p.add_argument("--vocab", dest="@paths.vocab")
    p.add_argument("--out", dest="@paths.model")
    p.add_argument("--epochs", dest="@train.epochs", type=int)
    p.add_argument("--num-classes", dest="@train.num_classes", type=int, choices=(2, 3))
    p.add_argument("--seed", dest="@train.seed", type=int)

    p = add("evaluate", cmd_evaluate, "evaluate a model on a labeled TSV")
    p.add_argument("--model", dest="@paths.model")
    p.add_argument("--data", dest="@paths.labeled")
    p.add_argument("--vocab", dest="@paths.vocab")
    p.add_argument("--out")
    p.add_argument("--table", action="store_true", help="also print a plain-text table")

    p = add("predict", cmd_predict, "classify one text")
    p.add_argument("--model", dest="@paths.model")
    p.add_argument("--vocab", dest="@paths.vocab")
    p.add_argument("--text", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO if args.command in ("pretrain", "train") else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        settings = {"seed": 42} | load_pipeline_config(args.config)
        for dest, value in vars(args).items():
            if dest.startswith("@") and value is not None:
                section, _, key = dest[1:].rpartition(".")
                (settings.setdefault(section, {}) if section else settings)[key] = value
        return args.fn(args, settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
