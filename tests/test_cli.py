import argparse
import json
import os
import pathlib
import re
import resource
import shutil

import numpy as np
import pytest

from kusent import cli
from kusent.bert import BertConfig, count_params
from kusent.checkpoint import field_types, from_dict, read_blob, write_blob
from kusent.classifiers import TrainConfig
from kusent.cli import _SECTION_TYPES, build_parser, load_pipeline_config, main
from kusent.corpus import SentimentLabel, load_labeled
from kusent.wordpiece import load_vocab

WORDS = {
    "positive": ["good0", "good1", "good2", "good3"],
    "negative": ["bad0", "bad1", "bad2", "bad3"],
    "neutral": ["meh0", "meh1", "meh2", "meh3"],
}


def write_labeled(path, n_per_class=8, classes=("positive", "negative", "neutral"), seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for label in classes:
        for _ in range(n_per_class):
            text = " ".join(rng.choice(WORDS[label], size=int(rng.integers(3, 6))))
            rows.append(f"{text}\t{label}")
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def write_corpus(path, n_lines=60, seed=1):
    rng = np.random.default_rng(seed)
    all_groups = list(WORDS.values())
    lines = [
        " ".join(rng.choice(all_groups[i % 3], size=int(rng.integers(3, 6))))
        for i in range(n_lines)
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _layers_in_half_of_memory(hidden):
    """An encoder layer count whose float32 values at ``hidden`` fill about half of physical memory."""
    one, two = (BertConfig(hidden_size=hidden, num_hidden_layers=n, num_attention_heads=1, vocab_size=10)
                for n in (1, 2))
    per_layer = 4 * (count_params(two) - count_params(one))
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (2 * per_layer)


class TestBasicSubcommands:
    def test_normalize(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("ك a\n\nي b\n", encoding="utf-8")
        out = tmp_path / "norm.txt"
        assert main(["normalize", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "ک a\nی b\n"

    def test_normalize_with_rules_file(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("AxB\n", encoding="utf-8")
        rules = tmp_path / "my.rules"
        rules.write_text("map 0041 005A\nstrip 0078\ndigits keep\n")
        out = tmp_path / "norm.txt"
        assert main(["normalize", "--in", str(src), "--out", str(out), "--rules", str(rules)]) == 0
        assert out.read_text(encoding="utf-8") == "ZB\n"

    def test_corpus_stats_json_keys(self, tmp_path, capsys):
        data = write_labeled(tmp_path / "data.tsv")
        assert main(["corpus-stats", "--in", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"longest", "mean", "total_tokens", "per_class"}
        assert payload["per_class"]["positive"] == 8

    def test_split_ratio_and_determinism(self, tmp_path):
        data = write_labeled(tmp_path / "data.tsv", n_per_class=10)
        for suffix in ("a", "b"):
            assert main([
                "split", "--in", str(data),
                "--out-train", str(tmp_path / f"train_{suffix}.tsv"),
                "--out-test", str(tmp_path / f"test_{suffix}.tsv"),
                "--ratio", "0.8", "--seed", "7",
            ]) == 0
        assert (tmp_path / "train_a.tsv").read_bytes() == (tmp_path / "train_b.tsv").read_bytes()
        train = load_labeled(str(tmp_path / "train_a.tsv"))
        test = load_labeled(str(tmp_path / "test_a.tsv"))
        assert len(train) == 24 and len(test) == 6

    def test_to_binary_then_undersample(self, tmp_path):
        data = tmp_path / "data.tsv"
        rows = (
            [f"good{i % 4} good{(i + 1) % 4}\tpositive" for i in range(10)]
            + [f"bad{i % 4}\tnegative" for i in range(6)]
            + [f"meh{i % 4}\tneutral" for i in range(4)]
        )
        data.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        binary = tmp_path / "binary.tsv"
        assert main(["to-binary", "--in", str(data), "--out", str(binary)]) == 0
        examples = load_labeled(str(binary))
        assert len(examples) == 16
        assert all(ex.label is not SentimentLabel.NEUTRAL for ex in examples)
        balanced = tmp_path / "balanced.tsv"
        assert main(["undersample", "--in", str(binary), "--out", str(balanced), "--seed", "3"]) == 0
        final = load_labeled(str(balanced))
        counts = {}
        for ex in final:
            counts[ex.label.value] = counts.get(ex.label.value, 0) + 1
        assert counts == {"positive": 6, "negative": 6}

    def test_train_tokenizer(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.txt")
        out = tmp_path / "vocab.txt"
        assert main([
            "train-tokenizer", "--in", str(corpus), "--vocab-size", "60",
            "--min-freq", "1", "--out", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        # the tiny corpus exhausts merges before 60 pieces; early stop is fine
        assert 20 < len(lines) <= 60
        assert len(set(lines)) == len(lines)


class TestErrors:
    def test_unknown_label_exits_nonzero(self, tmp_path, capsys):
        data = tmp_path / "bad.tsv"
        data.write_text("x\tupbeat\n", encoding="utf-8")
        rc = main(["corpus-stats", "--in", str(data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "upbeat" in err
        assert "\n" not in err.strip()

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tokenzier": {}}))
        src = tmp_path / "x.txt"
        src.write_text("a\n")
        rc = main(["normalize", "--in", str(src), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        assert "tokenzier" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "map FFFFFFFFFFFFFFFFFFFF 0041",  # past C int range: chr() raises OverflowError
        "map 0041 005A 110000",
        "strip -1",
    ])
    def test_code_point_out_of_range_is_one_error_line(self, tmp_path, capsys, line):
        src = tmp_path / "raw.txt"
        src.write_text("AxB\n", encoding="utf-8")
        rules = tmp_path / "my.rules"
        rules.write_text(f"digits keep\n{line}\n")
        out = tmp_path / "norm.txt"
        rc = main(["normalize", "--in", str(src), "--out", str(out), "--rules", str(rules)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {rules}:2: code point ") and err.count("\n") == 1
        assert "outside 0..10FFFF" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["map D800 0041", "map 0041 D800", "strip DFFF"])
    def test_surrogate_code_point_is_one_error_line(self, tmp_path, capsys, line):
        src = tmp_path / "raw.txt"
        src.write_text("AxB\n", encoding="utf-8")
        rules = tmp_path / "my.rules"
        rules.write_text(f"digits keep\n{line}\n")
        out = tmp_path / "norm.txt"
        rc = main(["normalize", "--in", str(src), "--out", str(out), "--rules", str(rules)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {rules}:2: code point ") and err.count("\n") == 1
        assert err.count("error:") == 1 and "is a surrogate" in err
        assert not out.exists()

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(["corpus-stats", "--in", str(tmp_path / "nope.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_required_path_named(self, tmp_path, capsys):
        rc = main(["pretrain", "--config", str(tmp_path / "cfg.json")])
        assert rc == 1

    def test_help_for_every_subcommand(self, capsys):
        parser = build_parser()
        for name in (
            "normalize", "corpus-stats", "split", "to-binary", "undersample",
            "train-tokenizer", "pretrain", "train", "evaluate", "predict",
        ):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_every_setting_flag_names_a_config_key(self):
        """A flag's dest "@section.key" names the config key it writes over; the rest are plain."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        plain = {"-h", "--config", "--in", "--out", "--out-train", "--out-test", "--ratio", "--task",
                 "--resume", "--table", "--text"}
        settings = 0
        for name, parser in sub.choices.items():
            for action in parser._actions:
                if not action.dest.startswith("@"):
                    assert action.option_strings[0] in plain, (name, action.option_strings)
                    continue
                section, _, key = action.dest[1:].rpartition(".")
                assert key in _SECTION_TYPES[section] if section else key == "seed", (name, action.dest)
                settings += 1
        assert settings == 31

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "kusent" in capsys.readouterr().out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """normalize -> train-tokenizer -> pretrain -> train mlp, once per module."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_raw = write_corpus(root / "corpus_raw.txt", n_lines=1000)
    labeled = write_labeled(root / "labeled.tsv", n_per_class=8)
    corpus = root / "corpus.txt"
    assert main(["normalize", "--in", str(corpus_raw), "--out", str(corpus)]) == 0
    vocab = root / "vocab.txt"
    assert main([
        "train-tokenizer", "--in", str(corpus), "--vocab-size", "60", "--out", str(vocab),
    ]) == 0
    vocab_size = len(load_vocab(str(vocab)))
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "seed": 11,
        "bert": {
            "hidden_size": 32,
            "num_hidden_layers": 2,
            "num_attention_heads": 4,
            "vocab_size": vocab_size,
            "max_position": 16,
            "epochs": 5,
            "batch_szie": 16,
        },
        "pretrain": {"max_len": 10, "learning_rate": 3e-3},
        "train": {"epochs": 25, "max_len": 10, "learning_rate": 1e-2, "batch_size": 8},
    }))
    encoder = root / "encoder"
    assert main([
        "pretrain", "--config", str(cfg), "--corpus", str(corpus),
        "--vocab", str(vocab), "--out", str(encoder),
    ]) == 0
    model = root / "model"
    assert main([
        "train", "--task", "mlp", "--config", str(cfg), "--encoder", str(encoder),
        "--data", str(labeled), "--vocab", str(vocab), "--out", str(model),
    ]) == 0
    return {
        "root": root, "vocab": vocab, "cfg": cfg, "encoder": encoder,
        "model": model, "labeled": labeled,
    }


@pytest.fixture(scope="module")
def bilstm_model(pipeline):
    """A one-epoch bilstm head on the pipeline's encoder."""
    model = pipeline["root"] / "bilstm_model"
    assert main([
        "train", "--task", "bilstm", "--config", str(pipeline["cfg"]),
        "--encoder", str(pipeline["encoder"]), "--data", str(pipeline["labeled"]),
        "--vocab", str(pipeline["vocab"]), "--out", str(model), "--epochs", "1",
    ]) == 0
    return model


class TestPipeline:
    def test_pretrain_wrote_checkpoint(self, pipeline):
        assert (pipeline["encoder"] / "params.bin").exists()
        assert (pipeline["encoder"] / "manifest.json").exists()
        assert (pipeline["encoder"] / "config.json").exists()

    def test_evaluate_on_training_data(self, pipeline, capsys):
        out = pipeline["root"] / "report.json"
        assert main([
            "evaluate", "--model", str(pipeline["model"]), "--data", str(pipeline["labeled"]),
            "--vocab", str(pipeline["vocab"]), "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"accuracy", "per_class", "weighted_f1", "micro_f1"}
        assert payload["accuracy"] >= 0.95

    def test_evaluate_replayable(self, pipeline):
        outs = []
        for suffix in ("r1", "r2"):
            out = pipeline["root"] / f"report_{suffix}.json"
            assert main([
                "evaluate", "--model", str(pipeline["model"]), "--data", str(pipeline["labeled"]),
                "--vocab", str(pipeline["vocab"]), "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_predict_output_format(self, pipeline, capsys):
        assert main([
            "predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
            "--text", "good0 good1 good2",
        ]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split("\t")
        assert len(fields) == 4  # label + three probabilities
        assert fields[0] in ("positive", "negative", "neutral")
        probs = [float(x) for x in fields[1:]]
        assert abs(sum(probs) - 1.0) < 1e-4

    def test_predict_on_unknown_words(self, pipeline, capsys):
        assert main([
            "predict", "--model", str(pipeline["model"]), "--vocab", str(pipeline["vocab"]),
            "--text", "zzz qqq",
        ]) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        assert len(fields) == 4

    def test_train_finetune_two_class(self, pipeline, tmp_path):
        binary = tmp_path / "binary.tsv"
        assert main([
            "to-binary", "--in", str(pipeline["labeled"]), "--out", str(binary),
        ]) == 0
        model = tmp_path / "model2"
        assert main([
            "train", "--task", "finetune", "--config", str(pipeline["cfg"]),
            "--encoder", str(pipeline["encoder"]), "--data", str(binary),
            "--vocab", str(pipeline["vocab"]), "--out", str(model),
            "--num-classes", "2", "--epochs", "5",
        ]) == 0
        assert json.loads((model / "labels.json").read_text()) == ["positive", "negative"]

    def test_evaluate_checks_labels_before_running_the_model(self, pipeline, tmp_path, monkeypatch, capsys):
        binary = tmp_path / "binary.tsv"
        assert main(["to-binary", "--in", str(pipeline["labeled"]), "--out", str(binary)]) == 0
        model = tmp_path / "model2"
        assert main([
            "train", "--task", "mlp", "--config", str(pipeline["cfg"]),
            "--encoder", str(pipeline["encoder"]), "--data", str(binary),
            "--vocab", str(pipeline["vocab"]), "--out", str(model),
            "--num-classes", "2", "--epochs", "1",
        ]) == 0
        capsys.readouterr()

        def never(*args, **kwargs):
            pytest.fail("evaluate ran the model before checking the labels")

        monkeypatch.setattr("kusent.cli.predict_encoded", never)
        monkeypatch.setattr("kusent.classifiers.predict_encoded", never)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--model", str(model), "--data", str(pipeline["labeled"]),
            "--vocab", str(pipeline["vocab"]), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "to-binary" in err
        assert not out.exists()

    def test_train_bilstm_runs(self, pipeline, tmp_path):
        model = tmp_path / "model3"
        assert main([
            "train", "--task", "bilstm", "--config", str(pipeline["cfg"]),
            "--encoder", str(pipeline["encoder"]), "--data", str(pipeline["labeled"]),
            "--vocab", str(pipeline["vocab"]), "--out", str(model), "--epochs", "2",
        ]) == 0
        meta = json.loads((model / "head_config.json").read_text())
        assert meta["kind"] == "bilstm"

    @pytest.mark.parametrize(
        "rel, key, value",
        [
            ("head_config.json", "kind", None),  # None: delete the key
            ("head_config.json", "kind", "gru"),
            ("head_manifest.json", "shape", None),
            ("encoder/manifest.json", "shape", None),
            # a dotted key edits a nested object
            ("head_config.json", "train_config.warmup", 3),
            ("head_config.json", "train_config.epochs", None),
            ("head_config.json", "head_meta.hidden_sizes", None),
            # values of the wrong type
            ("head_config.json", "train_config.epochs", "3"),
            ("head_config.json", "train_config.max_len", "10"),
            ("head_config.json", "head_meta.hidden_sizes", 5),
            ("encoder/config.json", "hidden_size", "32"),
            ("head_manifest.json", "shape", ["a", 2]),
            # above the encoder's max_position 16
            ("head_config.json", "train_config.max_len", 10**30),
            ("head_config.json", "head_meta.hidden_sizes", []),
        ],
    )
    def test_bad_artifact_is_one_error_line(self, pipeline, tmp_path, capsys, rel, key, value):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        path = model / rel
        raw = json.loads(path.read_text())
        entry = raw[0] if isinstance(raw, list) else raw
        *parents, key = key.split(".")
        for parent in parents:
            entry = entry[parent]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        rc = main([
            "predict", "--model", str(model), "--vocab", str(pipeline["vocab"]), "--text", "good0",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        named = value if isinstance(value, str) else key
        assert rel.split("/")[-1] in err and repr(named) in err

    @pytest.mark.parametrize("ref", ["../elsewhere", "absolute"])
    def test_encoder_outside_the_model_is_one_error_line(self, pipeline, tmp_path, capsys, ref):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        # a valid encoder sits at the path, so only the check can refuse it
        shutil.copytree(pipeline["model"] / "encoder", tmp_path / "elsewhere")
        if ref == "absolute":
            ref = str(tmp_path / "elsewhere")
        path = model / "head_config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), encoder_ref=ref)))
        capsys.readouterr()
        out = tmp_path / "report.json"
        rc = main([
            "evaluate", "--model", str(model), "--data", str(pipeline["labeled"]),
            "--vocab", str(pipeline["vocab"]), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "head_config.json: encoder_ref must be 'encoder'" in err and repr(ref) in err

    @pytest.mark.parametrize(
        "rel, text, named",
        [
            ("head_config.json", '{"kind": "mlp", "encoder_ref": "enc', "head_config.json"),
            ("encoder/config.json", '{"hidden_size": 3', "config.json"),
            ("head_manifest.json", "[{", "head_manifest.json"),
            ("labels.json", "[", "labels.json"),
            ("labels.json", '"positive"', "labels.json"),
            # three classes in the head, two labels beside it, or the three out of order
            ("labels.json", '["positive", "negative"]', "labels.json"),
            ("labels.json", '["negative", "positive", "neutral"]', "labels.json"),
        ],
    )
    def test_truncated_or_mismatched_artifact_is_one_error_line(
        self, pipeline, tmp_path, capsys, rel, text, named
    ):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        (model / rel).write_text(text)
        capsys.readouterr()
        rc = main([
            "predict", "--model", str(model), "--vocab", str(pipeline["vocab"]), "--text", "good0",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{named}: " in err

    @pytest.mark.parametrize(
        "argv, rel, key, value",
        [
            (["train", "--task", "mlp"], "cfg.json", "train.epochs", "1"),
            (["train", "--task", "mlp"], "cfg.json", "train.hidden_sizes", 5),
            (["train", "--task", "bilstm"], "cfg.json", "train.lstm_hidden", "8"),
            (["train", "--task", "mlp"], "cfg.json", "train.batch_size", 0),
            (["pretrain"], "cfg.json", "bert.hidden_size", "32"),
            (["pretrain"], "cfg.json", "bert", []),
            (["pretrain"], "cfg.json", "pretrain.max_len", "10"),
            (["pretrain"], "cfg.json", "pretrain.mask_rate", "x"),
            (["pretrain"], "cfg.json", "pretrain.log_every", 0),
            (["pretrain", "--lr", "0"], "cfg.json", "pretrain.learning_rate", None),
            (["pretrain"], "cfg.json", "seed", "1"),
            (["pretrain"], "encoder/state.json", "adam", None),
            (["train-tokenizer"], "cfg.json", "tokenizer.vocab_size", "60"),
            # head widths below 1
            (["train", "--task", "bilstm"], "cfg.json", "train.lstm_hidden", 0),
            (["train", "--task", "mlp"], "cfg.json", "train.hidden_sizes", [0]),
            (["train", "--task", "mlp"], "cfg.json", "train.hidden_sizes", [-2]),
            # split's outputs are flags only
            (["split"], "cfg.json", "paths.out_train", "elsewhere.tsv"),
            (["split"], "cfg.json", "paths.out_test", "elsewhere.tsv"),
            # refused up front, here on a resume of a finished checkpoint
            (["pretrain"], "cfg.json", "pretrain.mask_rate", 1.5),
            # an mlp head needs a hidden layer
            (["train", "--task", "mlp"], "cfg.json", "train.hidden_sizes", []),
        ],
    )
    def test_bad_input_value_is_one_error_line(
        self, pipeline, tmp_path, capsys, argv, rel, key, value
    ):
        """Each case exits 1 with one error line naming the file or section.key."""
        root = pipeline["root"]
        shutil.copy(pipeline["cfg"], tmp_path / "cfg.json")
        shutil.copytree(pipeline["encoder"], tmp_path / "encoder")
        path = tmp_path / rel
        raw = json.loads(path.read_text())
        entry = raw
        *parents, name = key.split(".")
        for parent in parents:
            entry = entry.setdefault(parent, {})
        if value is None:
            del entry[name]
        else:
            entry[name] = value
        path.write_text(json.dumps(raw))
        paths = {
            "train": ["--encoder", str(tmp_path / "encoder"), "--data", str(pipeline["labeled"]),
                      "--vocab", str(pipeline["vocab"]), "--out", str(tmp_path / "model")],
            "pretrain": ["--corpus", str(root / "corpus.txt"), "--vocab", str(pipeline["vocab"]),
                         "--out", str(tmp_path / "encoder"), "--resume"],
            "train-tokenizer": ["--in", str(root / "corpus.txt"), "--out", str(tmp_path / "v.txt")],
            "split": ["--in", str(pipeline["labeled"]), "--out-train", str(tmp_path / "train.tsv"),
                      "--out-test", str(tmp_path / "test.tsv")],
        }[argv[0]]
        capsys.readouterr()
        rc = main(argv + ["--config", str(tmp_path / "cfg.json")] + paths)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert path.name in err or key in err

    @pytest.mark.parametrize("argv, key, value", [
        (["pretrain"], "pretrain", float("nan")),
        (["pretrain", "--lr", "inf"], "pretrain", None),
        (["train", "--task", "mlp"], "train", float("inf")),
        (["train", "--task", "mlp"], "train", float("nan")),
        (["train", "--task", "bilstm"], "train", -float("inf")),
    ], ids=["pretrain-config-nan", "pretrain-flag-inf", "mlp-inf", "mlp-nan", "bilstm-minus-inf"])
    def test_non_finite_learning_rate_writes_nothing(self, pipeline, tmp_path, capsys, argv, key, value):
        raw = json.loads(pipeline["cfg"].read_text())
        if value is not None:
            raw[key]["learning_rate"] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))  # NaN and Infinity as JSON spells them
        out = tmp_path / "out"
        paths = {
            "pretrain": ["--corpus", str(pipeline["root"] / "corpus.txt")],
            "train": ["--encoder", str(pipeline["encoder"]), "--data", str(pipeline["labeled"])],
        }[argv[0]]
        capsys.readouterr()
        rc = main(argv + ["--config", str(tmp_path / "cfg.json"), "--vocab", str(pipeline["vocab"]),
                          "--out", str(out)] + paths)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "learning_rate must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("bert", [
        pytest.param({"num_hidden_layers": 10**30}, id=f"num_hidden_layers-{10**30}"),
        pytest.param({"hidden_size": 10**9}, id="hidden_size-1000000000"),
        # values that fill half of memory, in so many tensors that their objects do not fit
        pytest.param({"hidden_size": 4, "num_hidden_layers": _layers_in_half_of_memory(4)},
                     id="tensor_count"),
    ])
    def test_model_beyond_physical_memory_is_one_error_line(self, pipeline, tmp_path, capsys, bert):
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"].update(bert)
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        out = tmp_path / "encoder"
        capsys.readouterr()
        # a bound that lets the model through fails here at once instead of filling the host
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        mapped = int(pathlib.Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
        limit = mapped + 2**30
        resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
        try:
            rc = main(["pretrain", "--config", str(tmp_path / "cfg.json"), "--corpus",
                       str(pipeline["root"] / "corpus.txt"), "--vocab", str(pipeline["vocab"]), "--out", str(out)])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        err = capsys.readouterr().err
        n_params = count_params(BertConfig.from_dict(raw["bert"]))
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"a model of {n_params} parameters needs" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("mask_rate", 1.5), ("learning_rate", 0.0), ("log_every", 0), ("max_len", 2),
    ])
    def test_bad_pretrain_value_is_refused_before_the_build(self, pipeline, tmp_path, capsys, monkeypatch,
                                                            key, value):
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"].update(hidden_size=768, num_hidden_layers=6, num_attention_heads=12, vocab_size=50_000)
        raw["pretrain"][key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        builds = []

        def refused_build(*args, **kwargs):
            builds.append(args)
            raise AssertionError("build_model ran before the pretrain values were checked")

        monkeypatch.setattr(cli, "build_model", refused_build)
        out = tmp_path / "encoder"
        capsys.readouterr()
        rc = main(["pretrain", "--config", str(tmp_path / "cfg.json"), "--corpus",
                   str(pipeline["root"] / "corpus.txt"), "--vocab", str(pipeline["vocab"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and builds == []
        assert err.startswith(f"error: pretrain.{key} must be ") and err.count("\n") == 1
        assert not out.exists()

    def test_seed_flag_beats_train_seed(self, pipeline, tmp_path):
        raw = json.loads(pipeline["cfg"].read_text())
        raw["train"]["seed"] = 1
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main([
            "train", "--task", "mlp", "--config", str(tmp_path / "cfg.json"), "--seed", "7",
            "--encoder", str(pipeline["encoder"]), "--data", str(pipeline["labeled"]),
            "--vocab", str(pipeline["vocab"]), "--out", str(tmp_path / "model"), "--epochs", "1",
        ]) == 0
        meta = json.loads((tmp_path / "model" / "head_config.json").read_text())
        assert meta["train_config"]["seed"] == 7

    @pytest.mark.parametrize("argv, key, config_value, flag_value", [
        (["pretrain", "--lr"], "pretrain.learning_rate", 3e-3, 5e-4),
        (["train", "--task", "mlp", "--epochs"], "train.epochs", 2, 1),
        (["train", "--task", "mlp", "--num-classes"], "train.num_classes", 2, 3),
        (["train-tokenizer", "--vocab-size"], "tokenizer.vocab_size", 30, 34),
    ])
    def test_flag_beats_its_config_key(self, pipeline, tmp_path, argv, key, config_value, flag_value):
        """The value a run used, read back from what it wrote, is the flag's."""
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"]["iterations"] = 1
        raw["train"]["epochs"] = 1
        section, name = key.split(".")
        raw.setdefault(section, {})[name] = config_value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        inputs = {
            "pretrain": ["--corpus", str(pipeline["root"] / "corpus.txt"), "--vocab", str(pipeline["vocab"])],
            "train": ["--encoder", str(pipeline["encoder"]), "--data", str(pipeline["labeled"]),
                      "--vocab", str(pipeline["vocab"])],
            "train-tokenizer": ["--in", str(pipeline["root"] / "corpus.txt")],
        }[argv[0]]
        assert main(argv + [str(flag_value), "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
                    + inputs) == 0
        if argv[0] == "pretrain":
            used = json.loads((out / "state.json").read_text())["adam"]["lr"]
        elif argv[0] == "train":
            used = json.loads((out / "head_config.json").read_text())["train_config"][name]
        else:
            used = len(load_vocab(str(out)))
        assert used == flag_value

    @pytest.mark.parametrize(
        "artifact, rel, edit, name",
        [
            ("mlp", "head.bin", "drop", "head.b2"),
            ("bilstm", "head.bin", "drop", "lstm1.bwd.cell.w_h"),
            ("mlp", "head.bin", "add", "head.extra"),
            ("bilstm", "head.bin", "add", "head.extra"),
            ("mlp", "head.bin", "shrink", "head.b1"),
            ("bilstm", "head.bin", "shrink", "head.bias"),
            ("mlp", "encoder/params.bin", "shrink", "layer0.attn.q.bias"),
            ("encoder", "optim.bin", "drop", "v.layer0.ffn.w1"),
            # state.json counts Adam steps, so the moments must be there
            ("encoder", "optim.bin", "empty", "m.embeddings.token"),
        ],
    )
    def test_corrupt_tensor_is_one_error_line(
        self, pipeline, bilstm_model, tmp_path, capsys, artifact, rel, edit, name
    ):
        """A missing, unexpected or (1,)-shaped tensor is one error line naming the file and tensor."""
        source = {"mlp": pipeline["model"], "bilstm": bilstm_model, "encoder": pipeline["encoder"]}
        target = tmp_path / "artifact"
        shutil.copytree(source[artifact], target)
        bin_path = target / rel
        manifests = {"head.bin": "head_manifest.json", "params.bin": "manifest.json",
                     "optim.bin": "optim_manifest.json"}
        manifest = bin_path.with_name(manifests[bin_path.name])
        arrays, _ = read_blob(str(bin_path), str(manifest))
        if edit == "drop":
            del arrays[name]
        elif edit == "add":
            arrays[name] = np.zeros(2, dtype=np.float32)
        elif edit == "empty":
            arrays = {}
        else:
            arrays[name] = arrays[name][:1]
        write_blob(list(arrays.items()), str(bin_path), str(manifest))
        if artifact == "encoder":
            argv = ["pretrain", "--config", str(pipeline["cfg"]), "--corpus",
                    str(pipeline["root"] / "corpus.txt"), "--out", str(target), "--resume"]
        else:
            argv = ["predict", "--model", str(target), "--text", "good0"]
        capsys.readouterr()
        rc = main(argv + ["--vocab", str(pipeline["vocab"])])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{bin_path.name}: " in err and repr(name) in err

    @pytest.mark.parametrize(
        "bert_edit, flags, corpus_lines, named",
        [
            ({"hidden_size": 64}, [], None, "hidden_size"),
            ({"num_attention_heads": 8}, [], None, "num_attention_heads"),
            # epochs may change on resume, so the batch size is what gets named
            ({"batch_szie": 8, "epochs": 6}, [], None, "batch_size"),
            ({"dropout_rate": 0.2}, [], None, "dropout_rate"),
            ({}, ["--seed", "12"], None, "seed"),
            # half the corpus moves the epoch boundary under the stored step count
            ({}, [], 500, "next_epoch"),
            # as many lines as the run's corpus, so only the digest can tell them apart
            ({}, [], "first_line_changed", "corpus_sha256"),
        ],
    )
    def test_resume_from_another_run_is_one_error_line(
        self, pipeline, tmp_path, capsys, bert_edit, flags, corpus_lines, named
    ):
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"].update(bert_edit)
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        corpus = pipeline["root"] / "corpus.txt"
        if corpus_lines is not None:
            lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
            if corpus_lines == "first_line_changed":
                lines = ["x" + lines[0], *lines[1:]]
            else:
                lines = lines[:corpus_lines]
            corpus = tmp_path / "corpus.txt"
            corpus.write_text("".join(lines), encoding="utf-8")
        shutil.copytree(pipeline["encoder"], tmp_path / "encoder")
        capsys.readouterr()
        rc = main(["pretrain", "--config", str(tmp_path / "cfg.json"), "--corpus", str(corpus),
                   "--vocab", str(pipeline["vocab"]), "--out", str(tmp_path / "encoder"),
                   "--resume"] + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_resume_without_state_json_is_refused(self, pipeline, tmp_path, capsys):
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"]["iterations"] = 3
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        encoder = tmp_path / "encoder"
        argv = ["pretrain", "--config", str(tmp_path / "cfg.json"), "--corpus",
                str(pipeline["root"] / "corpus.txt"), "--vocab", str(pipeline["vocab"]),
                "--out", str(encoder), "--resume"]
        # a directory that does not exist yet starts a fresh run
        assert main(argv) == 0
        (encoder / "state.json").unlink()
        before = {p.name: p.read_bytes() for p in encoder.iterdir()}
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "state.json" in err
        assert {p.name: p.read_bytes() for p in encoder.iterdir()} == before

    @pytest.mark.parametrize("key, value, named", [
        ("beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
        ("beta1", -1.0, "beta1 must be in [0, 1), got -1.0"),
        ("beta2", 1.0, "beta2 must be in [0, 1), got 1.0"),
        ("lr", float("nan"), "lr must be finite and > 0, got nan"),
        ("eps", 0.0, "eps must be finite and > 0, got 0.0"),
        ("step_count", -1, "step_count must be >= 0, got -1"),
        ("step_count", -3, "step_count must be >= 0, got -3"),
    ])
    def test_bad_adam_state_is_one_error_line(self, pipeline, tmp_path, capsys, key, value, named):
        encoder = tmp_path / "encoder"
        shutil.copytree(pipeline["encoder"], encoder)
        state = json.loads((encoder / "state.json").read_text())
        state["adam"][key] = value
        (encoder / "state.json").write_text(json.dumps(state))
        # one more step than the checkpoint holds, so the resume trains
        raw = json.loads(pipeline["cfg"].read_text())
        raw["bert"].update(epochs=6, iterations=state["global_step"] + 1)
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        before = {p.name: p.read_bytes() for p in encoder.iterdir()}
        capsys.readouterr()
        rc = main(["pretrain", "--config", str(tmp_path / "cfg.json"), "--corpus",
                   str(pipeline["root"] / "corpus.txt"), "--vocab", str(pipeline["vocab"]),
                   "--out", str(encoder), "--resume"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {encoder / 'state.json'}: adam: {named}\n"
        assert {p.name: p.read_bytes() for p in encoder.iterdir()} == before

    def test_readme_config_example_loads(self, tmp_path):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"## Config file\n.*?```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(example, encoding="utf-8")
        config = load_pipeline_config(str(path))
        assert config == json.loads(example)
        BertConfig.from_dict(config["bert"])
        train = {k: v for k, v in config["train"].items() if k in field_types(TrainConfig)}
        assert set(config["train"]) - set(train) == {"lstm_hidden", "hidden_sizes"}
        from_dict(TrainConfig, train, "README train")

    def test_manifest_of_non_objects_is_one_error_line(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(pipeline["model"], model)
        (model / "head_manifest.json").write_text("[1, 2]")
        capsys.readouterr()
        rc = main([
            "predict", "--model", str(model), "--vocab", str(pipeline["vocab"]), "--text", "good0",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "head_manifest.json: entry 0 is not an object" in err

    def test_nan_encoder_stops_training_with_one_error_line(self, pipeline, tmp_path, capsys):
        encoder = tmp_path / "encoder"
        shutil.copytree(pipeline["encoder"], encoder)
        entry = next(
            e for e in json.loads((encoder / "manifest.json").read_text())
            if e["name"] == "embeddings.norm.gain"
        )
        blob = bytearray((encoder / "params.bin").read_bytes())
        blob[entry["byte_offset"] : entry["byte_offset"] + 4] = np.float32(np.nan).tobytes()
        (encoder / "params.bin").write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main([
            "train", "--task", "mlp", "--config", str(pipeline["cfg"]), "--encoder", str(encoder),
            "--data", str(pipeline["labeled"]), "--vocab", str(pipeline["vocab"]),
            "--out", str(tmp_path / "model"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: non-finite training loss nan at epoch 0, step 1\n"
