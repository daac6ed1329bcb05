"""WordPiece vocabulary training and greedy longest-match encoding.

Training grows a vocabulary from observed characters by repeatedly merging
the adjacent pair with the highest likelihood-ratio score
``freq(pair) / (freq(left) * freq(right))``; ties go to the
lexicographically smaller merged string. Continuation pieces carry a ``##``
prefix.

Encoding is greedy longest-match-first per whitespace word
(``Vocab.segment_word``), then CLS/SEP framing, truncation and padding
(``encode``); ``encode_batch`` stacks a list of texts into id and mask
arrays for the model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Recorded in the benchmark's run manifest (perfbench/worker.py); the
# matcher below is the only one.
MATCH_BACKEND = "python"

logger = logging.getLogger(__name__)

PAD, UNK, CLS, SEP, MASK = range(5)
SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
CONTINUATION_PREFIX = "##"
MAX_WORD_CHARS = 100


@dataclass(frozen=True)
class Vocab:
    """Ordered piece list; index is the token id. Ids 0-4 are the specials."""

    pieces: list[str]
    continuation_prefix: str = CONTINUATION_PREFIX
    piece_to_id: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.pieces[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError(
                f"ids 0-{len(SPECIAL_TOKENS) - 1} must be {SPECIAL_TOKENS}"
            )
        mapping: dict[str, int] = {}
        for i, piece in enumerate(self.pieces):
            if piece in mapping:
                raise ValueError(f"duplicate piece {piece!r} at ids {mapping[piece]} and {i}")
            mapping[piece] = i
        object.__setattr__(self, "piece_to_id", mapping)
        prefix = self.continuation_prefix
        initial: dict[str, int] = {}
        cont: dict[str, int] = {}
        for i, piece in enumerate(self.pieces[len(SPECIAL_TOKENS):], start=len(SPECIAL_TOKENS)):
            if piece.startswith(prefix) and len(piece) > len(prefix):
                cont[piece[len(prefix):]] = i
            else:
                initial[piece] = i
        object.__setattr__(self, "_initial", initial)
        object.__setattr__(self, "_cont", cont)
        object.__setattr__(self, "_max_init", max(map(len, initial), default=0))
        object.__setattr__(self, "_max_cont", max(map(len, cont), default=0))

    def __len__(self) -> int:
        return len(self.pieces)

    def id(self, piece: str) -> int:
        return self.piece_to_id[piece]

    def segment_word(self, word: str) -> list[str] | None:
        """Greedy longest-match pieces for one word, or None if unmatchable.

        Returns None when no full segmentation exists or the word is longer
        than ``MAX_WORD_CHARS`` (the caller substitutes UNK).
        """
        n = len(word)
        if n > MAX_WORD_CHARS:
            return None
        table = self._initial  # type: ignore[attr-defined]
        cap = self._max_init  # type: ignore[attr-defined]
        pieces: list[str] = []
        start = 0
        while start < n:
            end = min(n, start + cap)
            while end > start and word[start:end] not in table:
                end -= 1
            if end == start:
                return None
            piece = word[start:end]
            pieces.append(piece if start == 0 else self.continuation_prefix + piece)
            start = end
            # continuation pieces are keyed without their prefix
            table = self._cont  # type: ignore[attr-defined]
            cap = self._max_cont  # type: ignore[attr-defined]
        return pieces


@dataclass(frozen=True)
class Encoding:
    """Fixed-length ids and attention mask for one text."""

    ids: list[int]
    attention_mask: list[int]
    overflow: bool


def _word_splits(
    corpus: Iterable[str], min_freq: int
) -> tuple[dict[str, int], dict[str, list[str]], list[str]]:
    """Word frequencies, per-word symbol splits, and the observed alphabet."""
    word_freq: dict[str, int] = {}
    for line in corpus:
        for word in line.split():
            word_freq[word] = word_freq.get(word, 0) + 1
    alphabet: dict[str, None] = {}  # insertion-ordered set
    for word in word_freq:
        for pos, ch in enumerate(word):
            sym = ch if pos == 0 else CONTINUATION_PREFIX + ch
            alphabet.setdefault(sym, None)
    splits = {
        word: [ch if pos == 0 else CONTINUATION_PREFIX + ch for pos, ch in enumerate(word)]
        for word, freq in word_freq.items()
        if freq >= min_freq
    }
    return word_freq, splits, sorted(alphabet)


def train_wordpiece(
    corpus: Iterable[str], vocab_size: int, min_freq: int = 1
) -> Vocab:
    """Grow a WordPiece vocabulary of up to ``vocab_size`` pieces.

    Stops early with a warning when no adjacent pair is left to merge.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    word_freq, splits, alphabet = _word_splits(corpus, min_freq)
    if not word_freq:
        raise ValueError("cannot train on an empty corpus")
    minimum = len(SPECIAL_TOKENS) + len(alphabet)
    if vocab_size <= minimum:
        raise ValueError(
            f"vocab_size must exceed specials + alphabet = {minimum}, got {vocab_size}"
        )

    pieces = list(SPECIAL_TOKENS) + list(alphabet)
    known = set(pieces)

    while len(pieces) < vocab_size:
        sym_freq: dict[str, int] = {}
        pair_freq: dict[tuple[str, str], int] = {}
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
            merged = left + right[len(CONTINUATION_PREFIX):]
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
            logger.warning(
                "merge pairs exhausted at %d pieces (requested %d)",
                len(pieces),
                vocab_size,
            )
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
    return Vocab(pieces=pieces)


def encode(text, vocab: Vocab, max_len: int) -> Encoding:
    """Tokenize, add CLS/SEP, truncate to ``max_len``, pad with PAD.

    ``text`` may be a plain string or anything with a ``.text`` attribute.
    Words with no valid segmentation (or longer than 100 chars) become UNK.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3 (CLS, one piece, SEP), got {max_len}")
    raw = getattr(text, "text", text)
    ids: list[int] = []
    for word in raw.split():
        pieces = vocab.segment_word(word)
        if pieces is None:
            ids.append(UNK)
        else:
            ids.extend(vocab.piece_to_id[p] for p in pieces)
    overflow = len(ids) > max_len - 2
    if overflow:
        ids = ids[: max_len - 2]
    ids = [CLS] + ids + [SEP]
    n = len(ids)
    ids.extend([PAD] * (max_len - n))
    mask = [1] * n + [0] * (max_len - n)
    return Encoding(ids=ids, attention_mask=mask, overflow=overflow)


def encode_batch(texts: Sequence, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``encode`` each text and stack the rows into int64 (ids, masks) arrays.

    Columns past the longest real row are dropped, keeping at least 3 (CLS,
    one piece, SEP), so a batch of short texts does not pay for ``max_len``.
    """
    if not texts:
        raise ValueError("cannot encode an empty batch")
    encodings = [encode(text, vocab, max_len) for text in texts]
    ids = np.array([e.ids for e in encodings], dtype=np.int64)
    masks = np.array([e.attention_mask for e in encodings], dtype=np.int64)
    width = max(int(masks.sum(axis=1).max()), 3)
    return ids[:, :width], masks[:, :width]


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Invert ``encode``: drop specials, attach ``##`` pieces, join words."""
    words: list[str] = []
    prefix = vocab.continuation_prefix
    for token_id in ids:
        if not 0 <= token_id < len(vocab.pieces):
            raise ValueError(f"id {token_id} out of range for vocabulary of {len(vocab.pieces)}")
        if token_id < len(SPECIAL_TOKENS):
            continue
        piece = vocab.pieces[token_id]
        if piece.startswith(prefix) and words:
            words[-1] += piece[len(prefix):]
        else:
            words.append(piece)
    return " ".join(words)


def save_vocab(vocab: Vocab, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for piece in vocab.pieces:
            fh.write(piece + "\n")


def load_vocab(path: str) -> Vocab:
    pieces: list[str] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            piece = line.rstrip("\n")
            if piece in seen:
                raise ValueError(
                    f"duplicate piece {piece!r} at line {lineno} (first at line {seen[piece]})"
                )
            seen[piece] = lineno
            pieces.append(piece)
    if not pieces:
        raise ValueError(f"vocabulary file {path} is empty")
    if pieces[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
        raise ValueError(
            f"vocabulary file {path} must start with {SPECIAL_TOKENS} at ids 0-4"
        )
    return Vocab(pieces=pieces)
