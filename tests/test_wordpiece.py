import logging
import random

import numpy as np
import pytest

from kusent.wordpiece import (
    CLS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Encoding,
    Vocab,
    decode,
    encode,
    encode_batch,
    load_vocab,
    save_vocab,
    train_wordpiece,
)


def make_vocab(*pieces):
    return Vocab(pieces=list(SPECIAL_TOKENS) + list(pieces))


def oracle_segment(word, pieces, prefix="##"):
    """Reference segmentation: repeatedly take the longest matching prefix.

    Brute force: scans the whole piece list at every position instead of
    hashing substrings, so it shares no code with the production matcher.
    """
    if len(word) > 100:
        return None
    out = []
    rest = word
    first = True
    while rest:
        candidates = []
        for p in pieces[len(SPECIAL_TOKENS):]:
            is_cont = p.startswith(prefix) and len(p) > len(prefix)
            if first and not is_cont and rest.startswith(p):
                candidates.append((len(p), p))
            elif not first and is_cont and rest.startswith(p[len(prefix):]):
                candidates.append((len(p) - len(prefix), p))
        if not candidates:
            return None
        length, best = max(candidates)
        out.append(best)
        rest = rest[length:]
        first = False
    return out


class TestSegmentOracle:
    def test_hand_example(self):
        vocab = make_vocab("a", "ab", "##c", "##bc")
        assert vocab.segment_word("abc") == ["ab", "##c"]
        assert oracle_segment("abc", vocab.pieces) == ["ab", "##c"]

    def test_random_trials_match_oracle(self):
        rng = random.Random(1234)
        mismatches = 0
        for trial in range(1000):
            alphabet = "abc"[: rng.randint(2, 3)]
            n_pieces = rng.randint(1, 195)
            pieces = []
            seen = set(SPECIAL_TOKENS)
            for _ in range(3 * n_pieces):  # a small alphabet may run dry
                if len(pieces) == n_pieces:
                    break
                body = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 5))
                )
                piece = ("##" + body) if rng.random() < 0.5 else body
                if piece not in seen:
                    seen.add(piece)
                    pieces.append(piece)
            vocab = make_vocab(*pieces)
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            if vocab.segment_word(word) != oracle_segment(word, vocab.pieces):
                mismatches += 1
        assert mismatches == 0

    def test_long_word_becomes_unmatchable(self):
        vocab = make_vocab("a", "##a")
        assert vocab.segment_word("a" * 100) is not None
        assert vocab.segment_word("a" * 101) is None


class TestTraining:
    def test_merge_on_tiny_corpus(self):
        # ["aa aa aa"]: alphabet {a, ##a}; the only pair (a, ##a) scores
        # 3/(3*3) and merges into "aa".
        vocab = train_wordpiece(["aa aa aa"], vocab_size=8)
        assert "a" in vocab.pieces
        assert "##a" in vocab.pieces
        assert "aa" in vocab.pieces
        assert len(vocab) == 8

    def test_merge_exhaustion_warns_and_stops(self, caplog):
        with caplog.at_level(logging.WARNING):
            vocab = train_wordpiece(["x x x"], vocab_size=10)
        assert vocab.pieces == SPECIAL_TOKENS + ["x"]
        assert len(vocab) < 10
        assert any("exhausted" in r.message for r in caplog.records)

    def test_min_freq_blocks_rare_words(self):
        vocab = train_wordpiece(["ab cd", "ef gh"], vocab_size=30, min_freq=2)
        # every word occurs once, so merging never starts
        assert vocab.pieces == SPECIAL_TOKENS + sorted(
            ["a", "c", "e", "g", "##b", "##d", "##f", "##h"]
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_wordpiece([], vocab_size=10)
        with pytest.raises(ValueError, match="empty corpus"):
            train_wordpiece(["   "], vocab_size=10)

    def test_vocab_size_must_exceed_alphabet(self):
        with pytest.raises(ValueError, match="specials \\+ alphabet = 7"):
            train_wordpiece(["ab ab"], vocab_size=7)

    def test_deterministic(self):
        corpus = ["low lower lowest", "new newer newest", "low new"]
        a = train_wordpiece(corpus, vocab_size=40)
        b = train_wordpiece(corpus, vocab_size=40)
        assert a.pieces == b.pieces

    def test_scoring_prefers_exclusive_pairs(self):
        # "xy" always co-occur; "p"/"q" are frequent but also appear apart,
        # so the likelihood-ratio score must pick (x, ##y) first even though
        # (p, ##q) has higher raw pair frequency.
        corpus = ["xy"] * 5 + ["pq"] * 8 + ["p"] * 8 + ["q"] * 8
        lines = [" ".join(corpus)]
        vocab = train_wordpiece(lines, vocab_size=11)
        merges = [p for p in vocab.pieces[5:] if len(p.replace("##", "")) > 1]
        assert merges[0] == "xy"

    def test_tie_break_lexicographic(self):
        # two pairs with identical statistics; smaller merged string wins
        corpus = ["ab cd ab cd"]
        vocab = train_wordpiece(corpus, vocab_size=10)
        merges = [p for p in vocab.pieces[5:] if len(p.replace("##", "")) > 1]
        assert merges[0] == "ab"


class TestEncode:
    def test_hand_example_ids(self):
        vocab = make_vocab("a", "ab", "##c", "##bc")
        enc = encode("abc", vocab, max_len=8)
        assert enc.ids == [CLS, vocab.id("ab"), vocab.id("##c"), SEP, PAD, PAD, PAD, PAD]
        assert enc.attention_mask == [1, 1, 1, 1, 0, 0, 0, 0]
        assert enc.overflow is False

    def test_unknown_word_is_single_unk(self):
        vocab = make_vocab("a")
        enc = encode("q", vocab, max_len=5)
        assert enc.ids == [CLS, UNK, SEP, PAD, PAD]

    def test_empty_text(self):
        vocab = make_vocab("a")
        enc = encode("", vocab, max_len=5)
        assert enc.ids == [CLS, SEP, PAD, PAD, PAD]
        assert enc.attention_mask == [1, 1, 0, 0, 0]

    def test_truncation_sets_overflow(self):
        vocab = make_vocab("a")
        enc = encode("a a a a a a", vocab, max_len=5)
        assert enc.overflow is True
        assert enc.ids == [CLS, vocab.id("a"), vocab.id("a"), vocab.id("a"), SEP]
        assert enc.attention_mask == [1] * 5

    def test_max_len_too_small_rejected(self):
        vocab = make_vocab("a")
        with pytest.raises(ValueError, match="max_len"):
            encode("a", vocab, max_len=2)

    def test_mask_is_prefix_of_ones_and_sep_position(self):
        vocab = make_vocab("a", "b", "ab", "##a", "##b")
        rng = random.Random(5)
        for _ in range(200):
            words = [
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(0, 8))
            ]
            enc = encode(" ".join(words), vocab, max_len=12)
            n_ones = sum(enc.attention_mask)
            assert enc.attention_mask == [1] * n_ones + [0] * (12 - n_ones)
            assert enc.ids[n_ones - 1] == SEP
            assert enc.ids.count(SEP) == 1
            assert enc.ids[0] == CLS
            for i, token_id in enumerate(enc.ids):
                assert (enc.attention_mask[i] == 1) == (token_id != PAD)

    def test_accepts_normalized_text_objects(self):
        from kusent.normalize import normalize_text

        vocab = make_vocab("a")
        enc = encode(normalize_text("a"), vocab, max_len=4)
        assert enc.ids == [CLS, vocab.id("a"), SEP, PAD]

    @pytest.mark.parametrize(
        "texts, width",
        [
            (["a", "a a a", "q"], 5),
            (["", ""], 3),  # CLS SEP only: still 3 columns
            (["a a a a a a a a a a", "a"], 6),  # overflowing row fills max_len
        ],
    )
    def test_batch_stacks_rows_trimmed_to_longest(self, texts, width):
        vocab = make_vocab("a")
        ids, masks = encode_batch(texts, vocab, max_len=6)
        encodings = [encode(t, vocab, max_len=6) for t in texts]
        assert ids.dtype == masks.dtype == np.int64
        assert ids.shape == masks.shape == (len(texts), width)
        np.testing.assert_array_equal(ids, [e.ids[:width] for e in encodings])
        np.testing.assert_array_equal(masks, [e.attention_mask[:width] for e in encodings])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            encode_batch([], make_vocab("a"), max_len=6)


class TestDecode:
    def test_inverse_of_hand_example(self):
        vocab = make_vocab("a", "ab", "##c", "##bc")
        assert decode([CLS, vocab.id("ab"), vocab.id("##c"), SEP], vocab) == "abc"

    def test_specials_only(self):
        vocab = make_vocab("a")
        assert decode([CLS, SEP], vocab) == ""

    def test_out_of_range_id(self):
        vocab = make_vocab("a")
        with pytest.raises(ValueError, match="id 99"):
            decode([CLS, 99, SEP], vocab)

    def test_round_trip_fully_covered(self):
        vocab = make_vocab("a", "b", "ab", "ba", "##a", "##b", "##ab")
        rng = random.Random(9)
        for _ in range(300):
            words = [
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 5))
            ]
            text = " ".join(words)
            enc = encode(text, vocab, max_len=64)
            if enc.overflow or UNK in enc.ids:
                continue
            assert decode(enc.ids, vocab) == text


class TestVocabIO:
    def test_round_trip(self, tmp_path):
        vocab = train_wordpiece(["aa ab ba bb aa ab"], vocab_size=15)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, str(path))
        assert load_vocab(str(path)) == vocab

    def test_line_number_is_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(p + "\n" for p in SPECIAL_TOKENS + ["x", "##x"]))
        vocab = load_vocab(str(path))
        assert vocab.id("x") == 5
        assert vocab.id("##x") == 6

    def test_missing_specials_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\nf\n")
        with pytest.raises(ValueError, match="ids 0-4"):
            load_vocab(str(path))

    def test_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(p + "\n" for p in SPECIAL_TOKENS + ["x", "x"]))
        with pytest.raises(ValueError, match="line 7"):
            load_vocab(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_vocab(str(path))

    def test_large_round_trip(self, tmp_path):
        rng = random.Random(3)
        pieces = list(SPECIAL_TOKENS)
        seen = set(pieces)
        while len(pieces) < 5000:
            body = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 8)))
            piece = ("##" + body) if rng.random() < 0.5 else body
            if piece not in seen:
                seen.add(piece)
                pieces.append(piece)
        vocab = Vocab(pieces=pieces)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, str(path))
        assert load_vocab(str(path)) == vocab


class TestVocabInvariants:
    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_vocab("x", "x")

    def test_specials_required_in_order(self):
        with pytest.raises(ValueError, match="ids 0-4"):
            Vocab(pieces=["[UNK]", "[PAD]", "[CLS]", "[SEP]", "[MASK]", "x"])

    def test_piece_to_id_is_inverse(self):
        vocab = make_vocab("x", "##x", "xy")
        for i, piece in enumerate(vocab.pieces):
            assert vocab.piece_to_id[piece] == i

    def test_special_ids(self):
        assert (PAD, UNK, CLS, SEP, MASK) == (0, 1, 2, 3, 4)
