import json
import shutil

import numpy as np
import pytest

from kusent.cli import build_parser, main
from kusent.corpus import SentimentLabel, load_labeled

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
    from kusent.wordpiece import load_vocab

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
