"""WordPiece vocabulary training and greedy longest-match encoding.

Training grows a vocabulary from observed characters by repeatedly merging
the adjacent pair with the highest likelihood-ratio score
``freq(pair) / (freq(left) * freq(right))``; ties go to the
lexicographically smaller merged string, then to the pair a scan of the
words (in first-seen order) and of their positions meets first.
Continuation pieces carry BERT's ``##`` prefix (``CONTINUATION_PREFIX``) in
training, matching and decoding alike; the bare ``##`` is an initial piece
(``is_continuation``).

The trainer counts symbols and pairs once, keeps a pair -> words index and a
symbol -> pairs index, and after each merge re-splits only the words that
hold the merged pair (Sennrich et al. 2016; the SentencePiece BPE trainer).
The best pair comes from a lazy-deletion heap: only pairs whose count or
whose symbols' counts moved are rescored and pushed again, and stale entries
are dropped when popped. The result is the same vocabulary, piece for piece,
as recounting every pair for every merge.

Encoding takes the normalized ``str`` that ``normalize_text`` returns. It is
greedy longest-match-first per whitespace word, then CLS/SEP framing,
truncation and padding (``encode``). The match kernel, ``Vocab.line_ids``,
makes one pass over a line's words: it probes two tables that map piece
bodies straight to ids (initial pieces, and continuation pieces without
their ``##``) and appends the ids to the row; no piece string is built or
looked up again on the way. The pass stops once the row holds more pieces
than fit between CLS and SEP, so words past the cut are never segmented;
``Encoding.overflow`` still says whether the whole line had more.
``Vocab.segment_ids`` and ``Vocab.segment_word`` are its one-word views.
``encode_batch`` stacks a list of texts into id and mask arrays, and is the
one way a model gets its ids.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import atomic_write_text

# Recorded in the benchmark's run manifest (perfbench/worker.py); the
# matcher below is the only one.
MATCH_BACKEND = "python"

logger = logging.getLogger(__name__)

PAD, UNK, CLS, SEP, MASK = range(5)
SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
CONTINUATION_PREFIX = "##"
MAX_WORD_CHARS = 100

Pair = tuple[str, str]
# Stale entries the merge heap may hold beyond twice its live pairs before
# it is rebuilt from them.
_HEAP_SLACK = 1024


def is_continuation(piece: str) -> bool:
    """Whether ``piece`` continues a word: ``##`` and at least one more character. The
    bare ``##`` is an initial piece, the start of a word such as ``##a``."""
    return piece.startswith(CONTINUATION_PREFIX) and len(piece) > len(CONTINUATION_PREFIX)


@dataclass(frozen=True)
class Vocab:
    """Ordered piece list; index is the token id. Ids 0-4 are the specials.

    Only ``pieces`` is given; the id map and the match tables derive from
    it. A piece continues a word when ``is_continuation`` says so. The match
    tables map a piece's body to its id: ``_initial`` holds the initial
    pieces, ``_cont`` the continuation pieces keyed without their ``##``,
    and ``line_ids`` emits the ids it finds there.
    """

    pieces: list[str]
    piece_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _initial: dict[str, int] = field(init=False, repr=False, compare=False)
    _cont: dict[str, int] = field(init=False, repr=False, compare=False)
    _max_init: int = field(init=False, repr=False, compare=False)
    _max_cont: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pieces[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError(
                f"ids 0-{len(SPECIAL_TOKENS) - 1} must be {SPECIAL_TOKENS}"
            )
        mapping: dict[str, int] = {}
        for i, piece in enumerate(self.pieces):
            if piece in mapping:
                first = mapping[piece]  # a vocabulary file holds id i on line i + 1
                raise ValueError(f"duplicate piece {piece!r} at id {i} (line {i + 1}), "
                                 f"first at id {first} (line {first + 1})")
            mapping[piece] = i
        object.__setattr__(self, "piece_to_id", mapping)
        initial: dict[str, int] = {}
        cont: dict[str, int] = {}
        for i, piece in enumerate(self.pieces[len(SPECIAL_TOKENS):], start=len(SPECIAL_TOKENS)):
            if not piece:  # "" covers no character, so it never matches
                continue
            if is_continuation(piece):
                cont[piece[len(CONTINUATION_PREFIX):]] = i
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

    def line_ids(self, words: Sequence[str], limit: int) -> list[int]:
        """Greedy longest-match ids for a line's ``words``, stopping past ``limit`` ids.

        The one match kernel. For each word it probes the initial table
        (first piece) or the continuation table (later pieces) from the
        longest possible length down, takes the first hit and appends its id
        to the row. A word with no full segmentation, or longer than
        ``MAX_WORD_CHARS``, becomes one UNK. Once the row holds more than
        ``limit`` ids no further word is segmented, so a longer row means
        the line overflows ``limit``; the caller cuts it.
        """
        ids: list[int] = []
        append = ids.append
        initial_get, initial_cap = self._initial.get, self._max_init
        # continuation pieces are keyed without their prefix
        cont_get, cont_cap = self._cont.get, self._max_cont
        for word in words:
            mark = len(ids)
            if mark > limit:
                break
            n = len(word)
            if n > MAX_WORD_CHARS:
                append(UNK)
                continue
            get, cap = initial_get, initial_cap
            start = 0
            while start < n:
                end = start + cap
                if end > n:
                    end = n
                i = get(word[start:end])
                while i is None and end > start + 1:
                    end -= 1
                    i = get(word[start:end])
                if i is None:  # no piece starts here: drop the word's ids
                    del ids[mark:]
                    append(UNK)
                    break
                append(i)
                start = end
                get, cap = cont_get, cont_cap
        return ids

    def segment_ids(self, word: str) -> list[int] | None:
        """``line_ids`` of the one word ``word``, or None where it gives UNK.

        No match is a special id, so ``[UNK]`` means no full segmentation.
        """
        # a word gives at most MAX_WORD_CHARS ids, so this limit never stops it
        ids = self.line_ids((word,), MAX_WORD_CHARS)
        return None if ids == [UNK] else ids

    def segment_word(self, word: str) -> list[str] | None:
        """``segment_ids`` as piece strings, continuation pieces with their ``##``."""
        ids = self.segment_ids(word)
        return None if ids is None else [self.pieces[i] for i in ids]


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
    # Each observed symbol once; the splits share these strings rather than
    # holding a copy per character.
    alphabet: dict[str, str] = {}
    splits: dict[str, list[str]] = {}
    for word, freq in word_freq.items():
        split = [alphabet.setdefault(sym, sym)
                 for sym in (ch if pos == 0 else CONTINUATION_PREFIX + ch for pos, ch in enumerate(word))]
        if freq >= min_freq:
            splits[word] = split
    return word_freq, splits, sorted(alphabet)


def _merged(pair: Pair) -> str:
    return pair[0] + pair[1][len(CONTINUATION_PREFIX):]


def _merge_split(split: list[str], left: str, right: str, merged: str) -> list[str]:
    """Replace each (left, right) in ``split``, greedily from the left."""
    out = []
    i = 0
    while i < len(split):
        if i + 1 < len(split) and split[i] == left and split[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(split[i])
            i += 1
    return out


def _pop_best(
    heap: list[tuple[float, str, Pair]],
    score: dict[Pair, float],
    known: set[str],
    words: list[list[str]],
    pair_words: dict[Pair, set[int]],
) -> tuple[str, Pair] | None:
    """Pop the best live (merged, pair): highest score, then smaller merged string.

    Pairs that tie on both are taken in the order a scan of the splits meets
    them, by word and then by position, and the others go back on the heap.
    """
    while heap:
        neg, merged, pair = heapq.heappop(heap)
        if score.get(pair) == -neg and merged not in known:
            break
    else:
        return None
    ties = {pair}
    while heap and heap[0][0] == neg and heap[0][1] == merged:
        other = heapq.heappop(heap)[2]
        if score.get(other) == -neg:
            ties.add(other)
    if len(ties) > 1:

        def first_seen(pair: Pair) -> tuple[int, int]:
            i = min(pair_words[pair])
            split = words[i]
            return i, next(k for k in range(len(split) - 1) if (split[k], split[k + 1]) == pair)

        pair = min(ties, key=first_seen)
        for other in ties - {pair}:
            heapq.heappush(heap, (neg, merged, other))
    return merged, pair


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
    words = list(splits.values())
    freqs = [word_freq[word] for word in splits]

    # Counts over the current splits, weighted by word frequency, and the two
    # indexes that let a merge touch only what it changes.
    sym_freq: dict[str, int] = {}
    pair_freq: dict[Pair, int] = {}
    pair_words: dict[Pair, set[int]] = {}
    sym_pairs: dict[str, set[Pair]] = {}
    for i, split in enumerate(words):
        for sym in split:
            sym_freq[sym] = sym_freq.get(sym, 0) + freqs[i]
        for pair in zip(split, split[1:]):
            pair_freq[pair] = pair_freq.get(pair, 0) + freqs[i]
            pair_words.setdefault(pair, set()).add(i)
    for pair in pair_freq:
        for sym in pair:
            sym_pairs.setdefault(sym, set()).add(pair)

    # Lazy-deletion heap of (-score, merged, pair). ``score`` holds each live
    # pair's current score; an entry whose pair is gone, whose merged string
    # is already a piece, or whose score is not the current one is stale and
    # dropped when popped.
    merged_of = {pair: _merged(pair) for pair in pair_freq}
    score = {pair: freq / (sym_freq[pair[0]] * sym_freq[pair[1]]) for pair, freq in pair_freq.items()}
    heap = [(-s, merged_of[pair], pair) for pair, s in score.items()]
    heapq.heapify(heap)

    while len(pieces) < vocab_size:
        best = _pop_best(heap, score, known, words, pair_words)
        if best is None:
            logger.warning(
                "merge pairs exhausted at %d pieces (requested %d)",
                len(pieces),
                vocab_size,
            )
            break
        merged, (left, right) = best
        pieces.append(merged)
        known.add(merged)

        delta: dict[Pair, int] = {}
        sym_freq[merged] = 0
        for i in pair_words.pop((left, right)):
            old = words[i]
            new = _merge_split(old, left, right, merged)
            words[i] = new
            freq = freqs[i]
            count = freq * (len(old) - len(new))
            sym_freq[left] -= count
            sym_freq[right] -= count
            sym_freq[merged] += count
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for pair in old_pairs:
                delta[pair] = delta.get(pair, 0) - freq
            for pair in new_pairs:
                delta[pair] = delta.get(pair, 0) + freq
            for pair in set(old_pairs).difference(new_pairs):
                if pair in pair_words:
                    pair_words[pair].discard(i)
            for pair in set(new_pairs).difference(old_pairs):
                pair_words.setdefault(pair, set()).add(i)

        # every pair next to a symbol whose count moved, and every pair whose
        # own count moved, gets a new score
        rescore = sym_pairs[left] | sym_pairs[right]
        for pair, d in delta.items():
            if not d:
                continue
            freq = pair_freq.get(pair, 0) + d
            if freq:
                if pair not in pair_freq:
                    merged_of[pair] = _merged(pair)
                    for sym in pair:
                        sym_pairs.setdefault(sym, set()).add(pair)
                pair_freq[pair] = freq
                rescore.add(pair)
            else:
                del pair_freq[pair]
                del merged_of[pair]
                del score[pair]
                pair_words.pop(pair, None)
                rescore.discard(pair)
                for sym in pair:
                    sym_pairs[sym].discard(pair)
        for pair in rescore:
            s = pair_freq[pair] / (sym_freq[pair[0]] * sym_freq[pair[1]])
            if score.get(pair) != s:
                score[pair] = s
                heapq.heappush(heap, (-s, merged_of[pair], pair))
        if len(heap) > 2 * len(score) + _HEAP_SLACK:
            heap = [(-s, merged_of[pair], pair) for pair, s in score.items()]
            heapq.heapify(heap)
    return Vocab(pieces=pieces)


def _piece_limit(max_len: int) -> int:
    """The pieces a row of ``max_len`` holds between CLS and SEP."""
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3 (CLS, one piece, SEP), got {max_len}")
    return max_len - 2


def encode(text: str, vocab: Vocab, max_len: int) -> Encoding:
    """Tokenize normalized ``text``, add CLS/SEP, truncate to ``max_len``, pad with PAD.

    One ``Vocab.line_ids`` pass over the line's words; words with no valid
    segmentation (or longer than 100 chars) become UNK. The pass stops once
    the row holds more than ``max_len - 2`` pieces, so words past the cut are
    never segmented. ``overflow`` still says whether the whole line had more
    than ``max_len - 2`` pieces.
    """
    limit = _piece_limit(max_len)
    ids = vocab.line_ids(text.split(), limit)
    overflow = len(ids) > limit
    if overflow:
        del ids[limit:]
    n = len(ids) + 2
    # positional: a frozen dataclass takes keywords more slowly, once per line
    return Encoding([CLS, *ids, SEP, *[PAD] * (max_len - n)], [1] * n + [0] * (max_len - n), overflow)


def encode_batch(texts: Sequence[str], vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode each text as ``encode`` does and stack the rows into int64 (ids, masks) arrays.

    Each line takes one ``Vocab.line_ids`` pass cut at ``max_len - 2``
    pieces. Rows are padded to the widest framed row, with at least 3
    columns (CLS, one piece, SEP), so a batch of short texts does not pay
    for ``max_len``: the arrays equal ``encode``'s rows trimmed to that width.
    """
    if not texts:
        raise ValueError("cannot encode an empty batch")
    limit = _piece_limit(max_len)
    rows = [vocab.line_ids(text.split(), limit)[:limit] for text in texts]
    width = max(max(map(len, rows)) + 2, 3)
    ids = np.array([[CLS, *row, SEP, *[PAD] * (width - 2 - len(row))] for row in rows], dtype=np.int64)
    lengths = np.array([len(row) + 2 for row in rows])
    masks = (np.arange(width) < lengths[:, None]).astype(np.int64)
    return ids, masks


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Invert ``encode``: drop specials, attach ``##`` pieces, join words."""
    words: list[str] = []
    for token_id in ids:
        if not 0 <= token_id < len(vocab.pieces):
            raise ValueError(f"id {token_id} out of range for vocabulary of {len(vocab.pieces)}")
        if token_id < len(SPECIAL_TOKENS):
            continue
        piece = vocab.pieces[token_id]
        if is_continuation(piece) and words:
            words[-1] += piece[len(CONTINUATION_PREFIX):]
        else:
            words.append(piece)
    return " ".join(words)


def save_vocab(vocab: Vocab, path: str) -> None:
    atomic_write_text(path, "".join(piece + "\n" for piece in vocab.pieces))


def load_vocab(path: str) -> Vocab:
    """Read the one-piece-per-line file ``save_vocab`` writes; line n holds id n - 1."""
    with open(path, encoding="utf-8") as fh:
        pieces = [line.rstrip("\n") for line in fh]
    if not pieces:
        raise ValueError(f"vocabulary file {path} is empty")
    try:
        return Vocab(pieces=pieces)
    except ValueError as exc:
        raise ValueError(f"vocabulary file {path}: {exc}") from None
