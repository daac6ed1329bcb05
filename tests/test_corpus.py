import os
from collections import Counter

import pytest

from kusent.corpus import (
    LabeledExample,
    SentimentLabel,
    compute_stats,
    load_labeled,
    save_labeled,
    split,
    to_binary,
    undersample,
)
from kusent.normalize import NormalizationRules, default_rules, normalize_text


def make_example(text, label, topic=None):
    return LabeledExample(text=normalize_text(text), label=label, topic=topic)


def make_set(pos=0, neg=0, neu=0):
    out = []
    for i in range(pos):
        out.append(make_example(f"pos {i}", SentimentLabel.POSITIVE))
    for i in range(neg):
        out.append(make_example(f"neg {i}", SentimentLabel.NEGATIVE))
    for i in range(neu):
        out.append(make_example(f"neu {i}", SentimentLabel.NEUTRAL))
    return out


def label_counts(examples):
    return Counter(ex.label for ex in examples)


class TestLoadLabeled:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("باش\tpositive\n", encoding="utf-8")
        examples = load_labeled(str(path))
        assert len(examples) == 1
        assert examples[0].label is SentimentLabel.POSITIVE

    def test_topic_column_carried(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("x\tnegative\tsports\n", encoding="utf-8")
        assert load_labeled(str(path))[0].topic == "sports"

    def test_unknown_label_names_string_and_line(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("x\tupbeat\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"unknown label 'upbeat' at line 1"):
            load_labeled(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("x\tpositive\na\tb\tc\td\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_labeled(str(path))

    def test_text_is_normalized(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("ك  x\tneutral\n", encoding="utf-8")
        assert load_labeled(str(path))[0].text == "ک x"

    def test_default_rules_are_built_once_per_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.tsv"
        path.write_text("ك  x\tneutral\nي\tpositive\nx\tnegative\n", encoding="utf-8")
        built = []
        post_init = NormalizationRules.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(NormalizationRules, "__post_init__", counting_post_init)
        assert [ex.text for ex in load_labeled(str(path))] == ["ک x", "ی", "x"]
        assert len(built) == 1
        assert default_rules() is not default_rules()

    def test_round_trip(self, tmp_path):
        examples = make_set(pos=3, neg=2, neu=1)
        path = tmp_path / "out.tsv"
        save_labeled(examples, str(path))
        loaded = load_labeled(str(path))
        assert [ex.text for ex in loaded] == [ex.text for ex in examples]
        assert [ex.label for ex in loaded] == [ex.label for ex in examples]

    @pytest.mark.skipif(
        "KUSENT_LABELED_TSV" not in os.environ,
        reason="set KUSENT_LABELED_TSV to the 14,881-row labeled file to enable",
    )
    def test_reference_dataset_totals(self):
        examples = load_labeled(os.environ["KUSENT_LABELED_TSV"])
        assert len(examples) == 14_881


class TestComputeStats:
    def test_arithmetic(self):
        examples = [
            make_example("a b", SentimentLabel.POSITIVE),
            make_example("a b c", SentimentLabel.POSITIVE),
            make_example("a b c d", SentimentLabel.NEGATIVE),
        ]
        stats = compute_stats(examples)
        assert stats.longest_sentence == 4
        assert stats.mean_sentence_length == 3
        assert stats.total_tokens == 9
        assert stats.per_class_counts == {"positive": 2, "negative": 1}

    def test_empty_dataset(self):
        stats = compute_stats([])
        assert stats.longest_sentence == 0
        assert stats.mean_sentence_length == 0.0
        assert stats.total_tokens == 0
        assert stats.per_class_counts == {}

    def test_total_matches_whole_file_count(self, tmp_path):
        examples = make_set(pos=20, neg=10, neu=5)
        path = tmp_path / "c.tsv"
        save_labeled(examples, str(path))
        whole_file_tokens = sum(
            len(line.split("\t")[0].split())
            for line in path.read_text(encoding="utf-8").splitlines()
        )
        assert compute_stats(examples).total_tokens == whole_file_tokens

    @pytest.mark.skipif(
        "KUSENT_LABELED_TSV" not in os.environ,
        reason="set KUSENT_LABELED_TSV to the 14,881-row labeled file to enable",
    )
    def test_reference_dataset_stats(self):
        examples = load_labeled(os.environ["KUSENT_LABELED_TSV"])
        stats = compute_stats(examples)
        assert stats.longest_sentence == 512
        assert round(stats.mean_sentence_length) == 11
        assert stats.total_tokens == 151_889


class TestSplit:
    def test_stratified_counts(self):
        ds = split(make_set(pos=5, neg=5), ratio=0.8, seed=42)
        assert len(ds.train) == 8 and len(ds.test) == 2
        assert label_counts(ds.train)[SentimentLabel.POSITIVE] == 4
        assert label_counts(ds.train)[SentimentLabel.NEGATIVE] == 4
        assert label_counts(ds.test)[SentimentLabel.POSITIVE] == 1
        assert label_counts(ds.test)[SentimentLabel.NEGATIVE] == 1

    def test_deterministic(self):
        examples = make_set(pos=20, neg=15, neu=10)
        a = split(examples, ratio=0.8, seed=7)
        b = split(examples, ratio=0.8, seed=7)
        assert a.train == b.train and a.test == b.test

    def test_different_seeds_differ(self):
        examples = make_set(pos=50, neg=50)
        a = split(examples, ratio=0.5, seed=1)
        b = split(examples, ratio=0.5, seed=2)
        assert a.train != b.train

    def test_partition(self):
        examples = make_set(pos=13, neg=8, neu=6)
        ds = split(examples, ratio=0.7, seed=3)
        combined = sorted(
            (ex.text for ex in ds.train + ds.test)
        )
        assert combined == sorted(ex.text for ex in examples)
        assert len(ds.train) + len(ds.test) == len(examples)
        assert not {e.text for e in ds.train} & {e.text for e in ds.test}

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            split(make_set(pos=5, neg=5), ratio=1.0, seed=0)

    def test_singleton_class_rejected(self):
        with pytest.raises(ValueError, match="stratify"):
            split(make_set(pos=5, neg=1), ratio=0.8, seed=0)

    def test_per_class_ratio_within_one_example(self):
        examples = make_set(pos=31, neg=17, neu=9)
        ds = split(examples, ratio=0.8, seed=11)
        train_counts = label_counts(ds.train)
        for label, n in (("positive", 31), ("negative", 17), ("neutral", 9)):
            got = train_counts[SentimentLabel(label)]
            assert abs(got - 0.8 * n) <= 1.0


class TestToBinary:
    def test_filters_neutral(self):
        out = to_binary(make_set(pos=5, neg=3, neu=2))
        counts = label_counts(out)
        assert counts[SentimentLabel.POSITIVE] == 5
        assert counts[SentimentLabel.NEGATIVE] == 3
        assert SentimentLabel.NEUTRAL not in counts

    def test_all_neutral_gives_empty(self):
        assert to_binary(make_set(neu=4)) == []

    def test_identity_without_neutral(self):
        examples = make_set(pos=2, neg=2)
        assert to_binary(examples) == examples

    def test_idempotent(self):
        examples = make_set(pos=4, neg=2, neu=3)
        once = to_binary(examples)
        assert to_binary(once) == once

    def test_order_preserved(self):
        examples = make_set(pos=3, neg=3, neu=3)
        out = to_binary(examples)
        texts = [ex.text for ex in out]
        assert texts == [ex.text for ex in examples if ex.label is not SentimentLabel.NEUTRAL]


class TestUndersample:
    def test_reduces_to_minority(self):
        out = undersample(make_set(pos=5, neg=3), seed=0)
        counts = label_counts(out)
        assert counts[SentimentLabel.POSITIVE] == 3
        assert counts[SentimentLabel.NEGATIVE] == 3

    def test_balanced_input_counts_unchanged(self):
        examples = make_set(pos=4, neg=4, neu=4)
        assert label_counts(undersample(examples, seed=5)) == label_counts(examples)

    def test_seeds_change_survivors_not_counts(self):
        examples = make_set(pos=30, neg=10)
        a = undersample(examples, seed=1)
        b = undersample(examples, seed=2)
        assert label_counts(a) == label_counts(b)
        assert a != b

    def test_deterministic(self):
        examples = make_set(pos=30, neg=10, neu=20)
        assert undersample(examples, seed=9) == undersample(examples, seed=9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            undersample([], seed=0)
