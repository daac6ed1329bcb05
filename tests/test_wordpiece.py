import logging
import os
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def oracle_train_wordpiece(corpus, vocab_size, min_freq=1, prefix="##"):
    """Reference trainer: recount every pair of every word for each merge.

    The best pair has the highest ``freq(pair) / (freq(left) * freq(right))``,
    then the smaller merged string, then comes first in a scan of the words
    (in first-seen order) and of the positions in each. Returns the pieces.
    """
    word_freq = {}
    for line in corpus:
        for word in line.split():
            word_freq[word] = word_freq.get(word, 0) + 1
    alphabet = sorted({ch if pos == 0 else prefix + ch for word in word_freq for pos, ch in enumerate(word)})
    splits = {
        word: [ch if pos == 0 else prefix + ch for pos, ch in enumerate(word)]
        for word, freq in word_freq.items()
        if freq >= min_freq
    }
    pieces = list(SPECIAL_TOKENS) + alphabet
    known = set(pieces)
    while len(pieces) < vocab_size:
        sym_freq = {}
        pair_freq = {}
        for word, split in splits.items():
            freq = word_freq[word]
            for sym in split:
                sym_freq[sym] = sym_freq.get(sym, 0) + freq
            for left, right in zip(split, split[1:]):
                pair_freq[(left, right)] = pair_freq.get((left, right), 0) + freq
        best_pair = None
        best_score = 0.0
        best_merged = ""
        for (left, right), freq in pair_freq.items():
            merged = left + right[len(prefix):]
            if merged in known:
                continue
            score = freq / (sym_freq[left] * sym_freq[right])
            if (
                best_pair is None
                or score > best_score
                or (score == best_score and merged < best_merged)
            ):
                best_pair, best_score, best_merged = (left, right), score, merged
        if best_pair is None:
            break
        pieces.append(best_merged)
        known.add(best_merged)
        left, right = best_pair
        for word, split in splits.items():
            if len(split) < 2:
                continue
            out = []
            i = 0
            while i < len(split):
                if i + 1 < len(split) and split[i] == left and split[i + 1] == right:
                    out.append(best_merged)
                    i += 2
                else:
                    out.append(split[i])
                    i += 1
            splits[word] = out
    return pieces


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

    def test_empty_piece_never_matches(self):
        # a vocabulary file with a blank line holds the piece "", which covers no character
        assert make_vocab("", "a").segment_word("a") == ["a"]
        assert make_vocab("", "a").segment_word("ab") is None
        assert make_vocab("", "##a").segment_word("a") is None


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


def generated_corpus(rng, letters, n_words, max_chars, n_lines):
    """Lines drawn from a seeded pool of ``n_words`` random words."""
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, max_chars))) for _ in range(n_words)]
    return [" ".join(rng.choice(words) for _ in range(rng.randint(0, 10))) for _ in range(n_lines)]


def minimum_size(corpus):
    """Specials plus alphabet: ``train_wordpiece`` needs a larger ``vocab_size``."""
    return len(oracle_train_wordpiece(corpus, 0))


def assert_matches_oracle(corpus, vocab_size, min_freq=1):
    expected = oracle_train_wordpiece(corpus, vocab_size, min_freq)
    assert train_wordpiece(corpus, vocab_size, min_freq).pieces == expected
    return expected


class TestTrainingMatchesOracle:
    """``train_wordpiece`` updates its counts per merge; the oracle recounts
    every pair for each one. Their pieces must be identical."""

    # '#' spells "##", so merges can rebuild an alphabet symbol or a special
    # ("[PAD]") and be skipped as known, and two different pairs can merge
    # into the same string with the same score, which the word-order tie
    # rule settles.
    LETTERS = ["ab", "abc", "abcdefg", "aab", "a#", "#ab", "[PAD]#"]

    @pytest.mark.parametrize("min_freq", [1, 2, 3])
    def test_generated_corpora_up_to_and_past_exhaustion(self, min_freq):
        rng = random.Random(100 + min_freq)
        for _ in range(150):
            corpus = generated_corpus(rng, rng.choice(self.LETTERS), rng.randint(1, 40), 8, rng.randint(1, 8))
            if not "".join(corpus).split():
                continue
            minimum = minimum_size(corpus)
            exhausted = oracle_train_wordpiece(corpus, 10**6, min_freq)
            for size in {minimum + 1, (minimum + len(exhausted)) // 2 + 1, len(exhausted), len(exhausted) + 5}:
                if size > minimum:
                    assert_matches_oracle(corpus, size, min_freq)

    def test_single_letter_runs(self):
        # (##a, ##a) merges greedily from the left: "##a ##a ##a" -> "##aa ##a"
        rng = random.Random(7)
        for _ in range(40):
            corpus = [" ".join("a" * rng.randint(1, 12) for _ in range(rng.randint(1, 12)))
                      for _ in range(rng.randint(1, 4))]
            assert_matches_oracle(corpus, minimum_size(corpus) + 15)
        # (##a, ##a) scores 2/9 and beats (b, ##a) at 1/12, leaving "b ##aa ##a"
        assert assert_matches_oracle(["b b b baaa"], 10)[7:] == ["##aa", "##aaa", "baaa"]

    def test_tie_on_score_and_string_goes_to_the_pair_seen_first(self):
        # (##a, ###a) in "aaaa#aa" and (#, ###a#a) in "##a#a" both merge into
        # "##a#a" with score 0.2; the scan meets the first one a word earlier.
        corpus = ["# # # #aa aaaa#aa ##a#a aa ###aa"]
        pieces = assert_matches_oracle(corpus, 30)
        assert pieces[15:18] == ["##a#a", "##a#aa", "##aa#aa"]

    def test_desk_corpus(self):
        from test_acceptance import desk_corpus

        for size in (70, 400):
            assert_matches_oracle(desk_corpus(), size)

    @given(
        st.lists(st.text(alphabet="ab#", min_size=1, max_size=7), min_size=1, max_size=15),
        st.integers(1, 3),
        st.integers(1, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_alphabets(self, words, min_freq, extra):
        corpus = [" ".join(words)]
        assert_matches_oracle(corpus, minimum_size(corpus) + extra, min_freq)

    def test_min_freq_must_be_positive(self):
        with pytest.raises(ValueError, match="min_freq must be >= 1, got 0"):
            train_wordpiece(["ab ab"], vocab_size=20, min_freq=0)

    def test_5000_pieces_round_trip(self):
        rng = random.Random(11)
        letters = "abcdefghijklmnopqrstuvwxyz"
        corpus = generated_corpus(rng, letters, 3000, 12, 800)
        vocab = train_wordpiece(corpus, vocab_size=5000)
        assert len(vocab) == 5000
        assert len(set(vocab.pieces)) == 5000
        for line in corpus:
            enc = encode(line, vocab, max_len=128)  # 10 words of 12 letters at most
            assert not enc.overflow and UNK not in enc.ids
            assert decode(enc.ids, vocab) == line


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

    @pytest.mark.parametrize(
        "texts, width",
        [
            (["a", "a a a", "q"], 5),
            (["", ""], 3),  # CLS SEP only: still 3 columns
            (["a a a a a a a a a a", "a"], 6),  # overflowing row fills max_len
            (["a", "q", "ab", "b"], 3),  # one piece each, "q" and "b" as UNK
            (["ab a", "", "q a"], 4),  # an empty text among the others
            (["abcc a a a a", "", "a"], 6),  # a three-piece word, then the cut
            (["a a a a", "abc abc"], 6),  # rows of exactly max_len - 2 pieces
            (["abcc abcc", "a b a b a b a"], 6),  # every row overflows
        ],
    )
    def test_batch_stacks_rows_trimmed_to_longest(self, texts, width):
        vocab = make_vocab("a", "ab", "##b", "##c")
        ids, masks = encode_batch(texts, vocab, max_len=6)
        assert ids.dtype == masks.dtype == np.int64
        assert ids.shape == masks.shape == (len(texts), width)
        assert_batch_is_encode_trimmed(texts, vocab, max_len=6)

    def test_random_batches_are_encode_trimmed(self):
        rng = random.Random(77)
        vocab = make_vocab("a", "b", "ab", "##a", "##b", "##ab", "##bb")
        for _ in range(200):
            texts = [" ".join("".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
                              for _ in range(rng.randint(0, 7)))
                     for _ in range(rng.randint(1, 6))]
            assert_batch_is_encode_trimmed(texts, vocab, max_len=rng.randint(3, 16))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            encode_batch([], make_vocab("a"), max_len=6)


def assert_batch_is_encode_trimmed(texts, vocab, max_len):
    """``encode_batch`` equals ``encode``'s rows cut to the widest real row, at least 3 wide."""
    ids, masks = encode_batch(texts, vocab, max_len)
    encodings = [encode(t, vocab, max_len) for t in texts]
    width = max(max(sum(e.attention_mask) for e in encodings), 3)
    np.testing.assert_array_equal(ids, [e.ids[:width] for e in encodings])
    np.testing.assert_array_equal(masks, [e.attention_mask[:width] for e in encodings])


def oracle_encode(text, pieces, max_len):
    """(ids, mask, overflow) from ``oracle_segment``: a word's pieces by their index in
    ``pieces``, or one UNK, then CLS/SEP framing, truncation to ``max_len`` and padding."""
    body = []
    for word in text.split():
        segmented = oracle_segment(word, pieces)
        body += [UNK] if segmented is None else [pieces.index(p) for p in segmented]
    framed = [CLS] + body[: max_len - 2] + [SEP]
    pad = max_len - len(framed)
    return framed + [PAD] * pad, [1] * len(framed) + [0] * pad, len(body) > max_len - 2


def assert_encode_matches_oracle(text, vocab, max_len):
    enc = encode(text, vocab, max_len)
    assert (enc.ids, enc.attention_mask, enc.overflow) == oracle_encode(text, vocab.pieces, max_len)
    return enc


class TestEncodeMatchesOracle:
    def test_random_vocabularies_and_texts(self):
        rng = random.Random(4321)
        for trial in range(300):
            alphabet = rng.choice(["ab", "abc", "ab#"])
            # one vocabulary in five has no continuation pieces
            cont_share = 0.0 if rng.random() < 0.2 else 0.5
            pieces = []
            seen = set(SPECIAL_TOKENS)
            for _ in range(rng.randint(1, 60)):
                body = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                piece = ("##" + body) if rng.random() < cont_share else body
                if piece not in seen:
                    seen.add(piece)
                    pieces.append(piece)
            vocab = make_vocab(*pieces)
            words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
                     for _ in range(rng.randint(0, 8))]
            assert_encode_matches_oracle(" ".join(words), vocab, max_len=rng.randint(3, 24))

    def test_word_of_max_chars_is_segmented_and_one_more_is_unk(self):
        vocab = make_vocab("a", "##a")
        enc = assert_encode_matches_oracle(f"{'a' * 100} {'a' * 101} a", vocab, max_len=106)
        assert enc.ids[1:104] == [vocab.id("a")] + [vocab.id("##a")] * 99 + [UNK, vocab.id("a"), SEP]

    def test_word_failing_midway_is_one_unk_without_partial_ids(self):
        vocab = make_vocab("ab", "##c")
        enc = assert_encode_matches_oracle("abcd abc", vocab, max_len=8)
        assert enc.ids[:6] == [CLS, UNK, vocab.id("ab"), vocab.id("##c"), SEP, PAD]

    def test_vocabulary_without_continuation_pieces(self):
        vocab = make_vocab("a", "ab", "b")
        enc = assert_encode_matches_oracle("ab a ba b abab", vocab, max_len=10)
        assert enc.ids[:7] == [CLS, vocab.id("ab"), vocab.id("a"), UNK, vocab.id("b"), UNK, SEP]

    def test_bare_continuation_prefix_word(self):
        vocab = make_vocab("##", "##a", "###", "a")
        enc = assert_encode_matches_oracle("## ##a a## #", vocab, max_len=10)
        bare, cont_hash = vocab.id("##"), vocab.id("###")
        assert enc.ids[:9] == [CLS, bare, bare, vocab.id("##a"), vocab.id("a"), cont_hash, cont_hash, UNK, SEP]

    @pytest.mark.parametrize("n_ids, overflow", [(6, False), (7, True)])
    def test_rows_at_the_truncation_edge(self, n_ids, overflow):
        vocab = make_vocab("a", "b", "##b")
        text = " ".join(["ab"] * (n_ids // 2) + ["a"] * (n_ids % 2))  # "ab" is two ids
        enc = assert_encode_matches_oracle(text, vocab, max_len=8)
        assert enc.overflow is overflow
        assert enc.attention_mask == [1] * 8 and enc.ids[-1] == SEP
        assert_batch_is_encode_trimmed([text, "a"], vocab, max_len=8)


class CountingTable(dict):
    """A match table that counts its ``get`` calls."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def count_probes(vocab):
    """Swap ``vocab``'s match tables for counting copies; returns the running probe count."""
    tables = CountingTable(vocab._initial), CountingTable(vocab._cont)
    object.__setattr__(vocab, "_initial", tables[0])
    object.__setattr__(vocab, "_cont", tables[1])
    return lambda: sum(table.probes for table in tables)


class TestEncodeStopsAtTheCut:
    """One pass per line stops once the row holds more than ``max_len - 2`` pieces; ids,
    masks and ``overflow`` stay those of segmenting every word and then cutting."""

    # at max_len 8 the cut falls after 6 pieces; "abbb" is four pieces, "abbc"
    # fails at its "c" after three, and "q" has no piece. Rows of exactly 6
    # and 7 pieces are TestEncodeMatchesOracle.test_rows_at_the_truncation_edge.
    @pytest.mark.parametrize(
        "text, overflow",
        [
            ("a a a a abbb a", True),  # a four-piece word straddles the cut
            ("a a a a a abbb", True),  # ... and starts on the last kept position
            ("a a a a a q", False),  # an UNK word at the cut
            ("a a a a a q a", True),
            ("a a a a a a q", True),  # ... and just past it
            ("a a a abbc a a", False),  # a word fails midway just before the cut
            ("a a a a a abbc", False),  # its three partial pieces would cross the cut
            ("a a a a a abbc a", True),
        ],
    )
    def test_boundaries_match_the_oracle(self, text, overflow):
        vocab = make_vocab("a", "##b")
        enc = assert_encode_matches_oracle(text, vocab, max_len=8)
        assert enc.overflow is overflow
        assert_batch_is_encode_trimmed([text, "a"], vocab, max_len=8)

    def test_probes_are_bounded_by_the_kept_pieces(self):
        vocab = make_vocab("a", "ab", "##b", "##c", "##bc")
        words = ["abc", "q", "abcbc", "ab", "abd"]  # several pieces, no piece, failing midway
        probes = count_probes(vocab)
        most = 0
        for word in words:
            before = probes()
            vocab.segment_ids(word)
            most = max(most, probes() - before)
        text = " ".join(words[i % len(words)] for i in range(10_000))
        before = probes()
        enc = assert_encode_matches_oracle(text, vocab, max_len=8)
        assert enc.overflow
        # every word gives at least one id, so the pass segments at most the
        # words of the 6 kept pieces and one more
        assert probes() - before <= (6 + 1) * most


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


    def test_word_starting_with_continuation_prefix_round_trips(self):
        # "##a" learns the bare piece "##", which starts a word and continues none
        vocab = train_wordpiece(["x ##a x ##a x ##a"], 12)
        assert "##" in vocab.pieces
        enc = encode("x ##a", vocab, max_len=8)
        assert [vocab.pieces[i] for i in enc.ids if i >= len(SPECIAL_TOKENS)] == ["x", "##", "##a"]
        assert decode(enc.ids, vocab) == "x ##a"

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

    @pytest.mark.parametrize(
        "pieces, named",
        [
            (["[PAD]", "[UNK]", "[SEP]", "[CLS]", "[MASK]"], "ids 0-4"),
            (SPECIAL_TOKENS + ["x", "##x", "x"], "'x' at id 7 (line 8), first at id 5 (line 6)"),
        ],
        ids=["specials", "duplicate"],
    )
    def test_bad_file_error_names_path(self, tmp_path, pieces, named):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(p + "\n" for p in pieces))
        with pytest.raises(ValueError, match=re.escape(f"vocabulary file {path}: ")) as exc:
            load_vocab(str(path))
        assert named in str(exc.value)

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


    def test_failed_overwrite_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        save_vocab(Vocab(pieces=SPECIAL_TOKENS + ["x"]), str(path))
        old = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_vocab(Vocab(pieces=SPECIAL_TOKENS + ["y", "z"]), str(path))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

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
